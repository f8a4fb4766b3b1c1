"""STS3 core: the paper's primary contribution.

Grid transformation (Algorithms 1, 6), Jaccard similarity, and the
four search variants (Algorithms 2-5), plus the database facade with
buffered updates and the parameter-tuning utilities.
"""

from .approximate import ApproximateSearcher
from .batch import BatchQueryEngine, QueryWorkspace, batch_query
from .bitset import BitsetStore, popcount_u64, popcount_u64_lut
from .cache import CandidateCache, LRUBytesCache, QueryResultCache, fingerprint
from .catalog import CatalogSnapshot, QuarantineRecord, SegmentCatalog
from .executor import available_cpu_count
from .clustering import cluster_series, k_medoids
from .database import STS3Database, UpdateBuffer
from .maintenance import MaintenanceConfig, MaintenanceEngine, plan_merge, tier_of
from .grid import Bound, Grid
from .planner import QueryPlanner, SegmentPlan
from .segment import Segment
from .heap import KnnHeap
from .indexed import DictInvertedIndex, IndexedSearcher
from .join import JoinPair, similarity_join
from .minhash import LSHIndex, MinHasher, MinHashSearcher, estimate_jaccard
from .subsequence import SubsequenceMatch, SubsequenceSearcher
from .jaccard import (
    intersection_size,
    jaccard,
    jaccard_distance,
    jaccard_from_intersection,
    size_upper_bound,
)
from .naive import NaiveSearcher
from .persistence import (
    default_wal_dir,
    load_database,
    recover_database,
    save_database,
    verify_archive,
)
from .wal import (
    FrameError,
    ReplayReport,
    WalGapError,
    WalTail,
    WriteAheadLog,
    parse_frames,
    read_applied_seq,
    replay_wal,
    scan_wal,
    write_applied_seq,
)
from .pruning import PruningSearcher, zone_histogram
from .replication import ReplicaSet, replica_mirror_name
from .result import Neighbor, QueryResult, SearchStats, aggregate_stats
from .rpc import RpcError, RpcTimeout, WorkerDied
from .shard import HashRing, ShardError, ShardedDatabase, shard_manifest_path
from .selection import top_k_indices
from .setrep import CompressedSet, transform, transform_query
from .tuning import (
    ScaleTuningResult,
    TuningResult,
    default_epsilon_grid,
    default_sigma_grid,
    sts3_error_rate,
    tune_max_scale,
    tune_scale,
    tune_sigma_epsilon,
    tune_sigma_epsilon_unlabeled,
)

__all__ = [
    "ApproximateSearcher",
    "BatchQueryEngine",
    "BitsetStore",
    "Bound",
    "CandidateCache",
    "CatalogSnapshot",
    "CompressedSet",
    "DictInvertedIndex",
    "Grid",
    "HashRing",
    "IndexedSearcher",
    "JoinPair",
    "KnnHeap",
    "LRUBytesCache",
    "LSHIndex",
    "MaintenanceConfig",
    "MaintenanceEngine",
    "MinHashSearcher",
    "MinHasher",
    "NaiveSearcher",
    "Neighbor",
    "PruningSearcher",
    "QuarantineRecord",
    "QueryPlanner",
    "QueryResult",
    "QueryResultCache",
    "QueryWorkspace",
    "FrameError",
    "ReplayReport",
    "ReplicaSet",
    "RpcError",
    "RpcTimeout",
    "STS3Database",
    "ScaleTuningResult",
    "SearchStats",
    "Segment",
    "SegmentCatalog",
    "SegmentPlan",
    "ShardError",
    "ShardedDatabase",
    "SubsequenceMatch",
    "SubsequenceSearcher",
    "TuningResult",
    "UpdateBuffer",
    "WalGapError",
    "WalTail",
    "WorkerDied",
    "WriteAheadLog",
    "aggregate_stats",
    "batch_query",
    "cluster_series",
    "default_epsilon_grid",
    "default_sigma_grid",
    "default_wal_dir",
    "estimate_jaccard",
    "available_cpu_count",
    "fingerprint",
    "k_medoids",
    "intersection_size",
    "jaccard",
    "similarity_join",
    "jaccard_distance",
    "jaccard_from_intersection",
    "load_database",
    "parse_frames",
    "plan_merge",
    "popcount_u64",
    "popcount_u64_lut",
    "read_applied_seq",
    "recover_database",
    "replay_wal",
    "replica_mirror_name",
    "save_database",
    "scan_wal",
    "shard_manifest_path",
    "size_upper_bound",
    "verify_archive",
    "sts3_error_rate",
    "tier_of",
    "top_k_indices",
    "transform",
    "transform_query",
    "tune_max_scale",
    "tune_scale",
    "tune_sigma_epsilon",
    "tune_sigma_epsilon_unlabeled",
    "write_applied_seq",
    "zone_histogram",
]
