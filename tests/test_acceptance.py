"""Acceptance gate: one test per advertised guarantee of the package.

Each test prints a single PASS or FAIL line (visible under `pytest -s`
or `pytest -v` by test name) and asserts the guarantee exactly.  All
checks are exact integer comparisons.
"""

import math
import time

import mpmath

import oracles
from symbalance import (
    all_orbits_divisible,
    binom,
    brute_count_balanced_symmetric,
    conjecture1_mismatches,
    conjecture2_violations,
    count_balanced_all,
    elem_values,
    find_all_solutions,
    is_sac_elem,
    lacunary_sums,
    lacunary_trig_sums,
    lower_bound_balanced,
    scan_conjecture1,
    scan_conjecture2,
    walsh_spectrum,
    weight_elem,
    weight_trig_wt2,
    weight_trig_wt3,
)
from symbalance.cli import main as cli_main


def report(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def test_criterion_1_bisection_census():
    started = time.perf_counter()
    hits = {n for n in range(1, 29) if find_all_solutions(n).nontrivial}
    elapsed = time.perf_counter() - started
    ok = hits == {8, 13, 14, 20, 24, 26} and elapsed < 300
    report("criterion 1: nontrivial bisections for 1 <= n <= 28 occur "
           "exactly at n in {8,13,14,20,24,26}", ok)


def test_criterion_2_balanced_family_scan():
    started = time.perf_counter()
    cells = scan_conjecture1(64)
    elapsed = time.perf_counter() - started
    balanced = {(c.d, c.n) for c in cells if c.balanced}
    # the family d = 2^t, n = 2^(t+1) l - 1, restated independently
    expected = set()
    for t in range(1, 7):
        d = 1 << t
        for n in range(2 * d - 1, 65, 2 * d):
            expected.add((d, n))
    ok = (not conjecture1_mismatches(cells)
          and balanced == expected
          and elapsed < 120)
    report("criterion 2: balanced X(d,n) for 2 <= d <= n <= 64 occur "
           "exactly at d = 2^t, n = 2^(t+1)l - 1", ok)


def test_criterion_3_census_counts_and_bound():
    checks = [
        count_balanced_all(2, 2) == 6,
        oracles.count_balanced_all_enumerate(2, 2) == 6,
        count_balanced_all(3, 1) == 6,
        oracles.count_balanced_all_enumerate(3, 1) == 6,
        brute_count_balanced_symmetric(2, 3) == 4,
        lower_bound_balanced(2, 3) == 4,
    ]
    # the bound exists only when no orbit splits, i.e. gcd(n, p) = 1
    for p, top in ((2, 14), (3, 4)):
        for n in range(1, top + 1):
            if math.gcd(n, p) != 1:
                continue
            checks.append(brute_count_balanced_symmetric(p, n)
                          >= lower_bound_balanced(p, n))
    report("criterion 3: balanced counts match exhaustive enumeration and "
           "the orbit lower bound holds (tight at p=2, n=3)", all(checks))


def test_criterion_4_spectral_identities():
    ok = True
    for n in range(1, 15):
        pops = [w.bit_count() for w in range(1 << n)]
        parseval = 1 << (2 * n)
        for d in range(1, n + 1):
            wf = elem_values(d, n)
            by_weight = walsh_spectrum(wf).by_weight
            brute = oracles.walsh_all([wf.v[pop] for pop in pops])
            ok &= all(brute[w] == by_weight[pops[w]] for w in range(1 << n))
            ok &= sum(binom(n, y) * v * v
                      for y, v in enumerate(by_weight)) == parseval
            if d % 2 == 1:
                ok &= all(by_weight[y] == -by_weight[n - y] for y in range(1, n))
                if d >= 3 and is_sac_elem(d, n):
                    ok &= weight_elem(d, n) == 1 << (n - 2)
    report("criterion 4: Krawtchouk Walsh values equal brute force for "
           "every mask (1 <= d <= n <= 14), Parseval exact, odd-degree "
           "antisymmetry, SAC implies weight 2^(n-2)", bool(ok))


def test_criterion_5_sac_equivalence():
    ok = True
    for n in range(2, 15):
        for d in range(2, n + 1):
            wf = elem_values(d, n)
            table = [wf.v[x.bit_count()] for x in range(1 << n)]
            ok &= is_sac_elem(d, n) == oracles.sac_direct(table, n)
    report("criterion 5: balance-reduction SAC test equals definitional "
           "SAC for 2 <= d <= n <= 14", bool(ok))


def exact_int(value):
    """The integer an mpf holds, or None when it is not an integer mpf."""
    if isinstance(value, mpmath.mpf) and mpmath.isint(value):
        return int(value)
    return None


def test_criterion_6_closed_form_weights():
    ok = True
    for t in range(1, 5):
        d = (1 << t) + 1
        for m in range(1 << (t + 1), 41):
            series, corr = map(exact_int, weight_trig_wt2(t, m))
            exact = weight_elem(d, m)
            ok &= series == exact
            ok &= corr == (exact - (1 << (m - 2))) << t
    for t in range(2, 5):
        for s in range(1, t):
            d = 1 + (1 << s) + (1 << t)
            for n in range(d, 41):
                ok &= exact_int(weight_trig_wt3(s, t, n)) == weight_elem(d, n)
    ok &= tuple(map(exact_int, weight_trig_wt2(1, 6))) == (20, 8)
    ok &= weight_elem(3, 6) == 20
    ok &= weight_elem(7, 12) == 792 == exact_int(weight_trig_wt3(1, 2, 12))
    report("criterion 6: closed-form weights are integer mpfs equal to the "
           "exact weights for t <= 4, lengths <= 40; anchors "
           "wt(X(3,6)) = 20 with correction 8, wt(X(7,12)) = 792", bool(ok))


def test_criterion_7_lacunary_round_trip():
    ok = True
    for n in range(1, 41):
        for power in range(1, 6):
            residues = range(1 << power)
            ok &= lacunary_trig_sums(n, power, residues) == lacunary_sums(n, power, residues)
            for i in residues:
                ok &= lacunary_trig_sums(n, power, [i]) == lacunary_sums(n, power, [i])
    report("criterion 7: lacunary binomial sums round-trip exactly for "
           "n <= 40, moduli 2..32, all residues", bool(ok))


def test_criterion_8_orbit_divisibility():
    ok = True
    # Each orbit's multiplicity vector, read off the oracle's classes; the
    # orbit holds p! / prod m_l! classes.
    for p in (2, 3, 5, 7):
        for n in range(1, 13):
            mvs = oracles.multiplicity_vectors(p, n)
            for m in mvs:
                if max(m) < p:
                    ok &= oracles.multinomial(p, m) % p == 0
            if math.gcd(n, p) == 1:
                ok &= all(max(m) < p for m in mvs)
            ok &= all_orbits_divisible(p, n) == (math.gcd(n, p) == 1)
    remark = (3, 2, 1, 1, 0, 0, 0, 0)
    ok &= oracles.multinomial(7, remark) == 420
    ok &= oracles.multinomial(7, remark) % 7 == 0
    report("criterion 8: orbit sizes divisible by p whenever every "
           "multiplicity is below p (p in {2,3,5,7}, n <= 12); the "
           "(3,2,1,1) instance gives orbit 420 with 7 | 420", bool(ok))


def test_criterion_9_quarter_bound_scan(capsys):
    cells = scan_conjecture2(160)
    ok = bool(cells) and not conjecture2_violations(cells)
    ok &= all(c.below and c.weight < c.bound for c in cells)
    code = cli_main(["scan-c2", "--format", "json"])
    capsys.readouterr()
    ok &= code == 0
    report("criterion 9: exact weight stays below 2^(n-2) for wt(d) >= 6, "
           "2(d-1) <= n <= 160; scan exit code is 0, never 2", bool(ok))
