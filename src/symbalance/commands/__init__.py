"""The handlers of the command line, one module per engine module they
front, each imported by cli on the first call of one of its commands.

A handler reads its parsed arguments, runs the engine, checks the caps
and routes the command owns, and returns a cli.CommandResult."""
