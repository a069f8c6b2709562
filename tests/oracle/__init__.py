"""An independent, brute-force reading of the query language.

Each module evaluates one query shape over a complete trace with no
incremental state, from the rules in ``docs/LANGUAGE.md`` and SQL's
three-valued logic; none of it calls the engine's evaluators.
"""
