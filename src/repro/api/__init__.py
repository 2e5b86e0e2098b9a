"""repro.api: the unified query facade (PR 4).

One :class:`Database` handle over a structure is the top-level way in;
it drives the layer APIs (``repro.core.compile_structure_query``,
``CompiledQuery.dynamic``, ``repro.engine.WeightedQueryEngine``,
``repro.serve.QueryService``), which stay the extension surface::

    from repro.api import Database

    with Database(structure) as db:
        q = db.prepare(expr)                 # weighted expr or FO formula
        q.value(NATURAL)                     # static value (closed)
        q.batch(valuations, NATURAL)         # batched what-ifs
        q.bind(x=a).value(NATURAL)           # cached point query
        q.group_by(NATURAL)                  # grouped aggregation (OLAP)
        m = q.maintain(NATURAL); m.value()   # maintained under updates
        q.enumerate()                        # constant-delay enumeration
        svc = db.serve(expr, NATURAL)        # micro-batched service
        db.select(expr).group_by("x").run(NATURAL)  # SQL-ish sugar
        with db.update() as tx:              # routed, cache-coherent
            tx.set_weight("w", edge, 3)

All execution knobs live in one :class:`ExecOptions`; compilations are
shared through the database's plan cache, point-query results through
its epoch-tagged result cache, and worker sharding through its one
thread pool.
"""

from .database import Database, UpdateContext
from .options import ExecOptions
from .prepared import BoundQuery, MaintainedQuery, PreparedQuery
from .table import TOTAL, ResultTable, Select

__all__ = ["Database", "PreparedQuery", "BoundQuery", "MaintainedQuery",
           "UpdateContext", "ExecOptions", "ResultTable", "Select", "TOTAL"]
