"""An independent, brute-force reading of the query language.

Each module evaluates query shapes over a complete trace with no
incremental state, from the rules in ``docs/LANGUAGE.md`` and SQL's
three-valued logic: ``filter`` (scalar expressions, single-stream
filters), ``temporal`` (SEQ, star sequences, EXCEPTION_SEQ / CLEVEL_SEQ)
and ``relational`` (EXISTS, aggregates, one-shot SELECTs, whole
programs).  They take only the parser's output from the package: nothing
from ``repro.core.operators`` or ``repro.baselines``, and no expression
is ever compiled.  ``generate`` draws random programs and traces, and
``engines`` runs a program on every configuration we ship.
"""
