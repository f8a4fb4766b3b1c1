"""repro — reproduction of "Set-based Similarity Search for Time Series".

STS3 (Peng, Wang, Li, Gao; SIGMOD 2016) answers k-NN queries over
z-normalized time series by converting each series into a set of
grid-cell IDs and ranking candidates by Jaccard similarity.  This
package implements the full system — the four STS3 variants, every
baseline the paper compares against (ED, DTW, LB_Keogh/LB_Improved,
FastDTW, LCSS, FTSE), synthetic data substrates, and a benchmark
harness regenerating every table and figure of the evaluation.

Quickstart::

    import numpy as np
    from repro import STS3Database
    from repro.data import ecg_stream

    stream = ecg_stream(200_000, seed=7)
    database = [stream[i * 200:(i + 1) * 200] for i in range(900)]
    query = stream[900 * 200: 901 * 200]

    db = STS3Database(database, sigma=3, epsilon=0.58)
    result = db.query(query, k=5, method="index")
    for n in result.neighbors:
        print(n.index, round(n.similarity, 3))
"""

from .core import (
    ApproximateSearcher,
    BatchQueryEngine,
    Bound,
    Grid,
    IndexedSearcher,
    NaiveSearcher,
    Neighbor,
    PruningSearcher,
    QuarantineRecord,
    QueryPlanner,
    QueryResult,
    QueryWorkspace,
    STS3Database,
    SearchStats,
    Segment,
    SegmentCatalog,
    WriteAheadLog,
    aggregate_stats,
    jaccard,
    jaccard_distance,
    recover_database,
    transform,
    transform_many,
    transform_query,
    tune_max_scale,
    tune_scale,
    tune_sigma_epsilon,
    verify_archive,
)
from .exceptions import (
    DatasetError,
    EmptyDatabaseError,
    GridError,
    ParameterError,
    ReproError,
)
from .types import ClassificationDataset, LabeledDataset, Workload

__version__ = "1.0.0"

__all__ = [
    "ApproximateSearcher",
    "BatchQueryEngine",
    "Bound",
    "ClassificationDataset",
    "DatasetError",
    "EmptyDatabaseError",
    "Grid",
    "GridError",
    "IndexedSearcher",
    "LabeledDataset",
    "NaiveSearcher",
    "Neighbor",
    "ParameterError",
    "PruningSearcher",
    "QuarantineRecord",
    "QueryPlanner",
    "QueryResult",
    "QueryWorkspace",
    "ReproError",
    "STS3Database",
    "SearchStats",
    "Segment",
    "SegmentCatalog",
    "Workload",
    "WriteAheadLog",
    "aggregate_stats",
    "jaccard",
    "jaccard_distance",
    "recover_database",
    "transform",
    "transform_many",
    "transform_query",
    "tune_max_scale",
    "tune_scale",
    "tune_sigma_epsilon",
    "verify_archive",
    "__version__",
]
