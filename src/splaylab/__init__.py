"""splaylab: binary search tree executions, self-adjusting algorithms,
crossing lower bounds, tree transformations, and a brute-force optimal
execution oracle, with verification suites for the desk-scale theorems."""

__version__ = "0.1.0"

from .tree import (  # noqa: F401
    DisconnectedSubtreeError,
    DuplicateKeyError,
    KeyAbsentError,
    Node,
    RotationAtRootError,
    all_shapes,
    bst_from_sequence,
    depth,
    left_spine_tree,
    parse_shape,
    path_encoding,
    postorder,
    preorder,
    right_spine_tree,
    root_subtree,
    rotate,
    shape_print,
    size,
    substitute,
    tree_keys,
)
from .algorithms import (  # noqa: F401
    AccessRecord,
    RunTotals,
    deque_run,
    insertion_splay,
    move_to_root,
    run_accesses,
    run_totals,
    splay,
    top_down_splay,
)
from .model import (  # noqa: F401
    Execution,
    ExecutionTrace,
    Instance,
    InvalidExecutionError,
    RotationAccess,
    RotationExecution,
    elide,
    from_rotation_model,
    rotation_trace,
    to_rotation_model,
    validate,
)
from .wilber import (  # noqa: F401
    crossing_bound,
    level,
    remove_one_gap,
    sequence_crossing_bound,
    splay_bookkeeping_cost,
    splay_crossing_cost,
    validate_level_formulas,
    wilber_score,
    window_decompose,
)
from .opt import GuardExceededError, OptResult, opt_cost  # noqa: F401
from .transforms import (  # noqa: F401
    TransitionDigraph,
    build_digraph,
    diameter,
    flatten_restricted,
    shortest_path,
    simulation_embedding,
    simultaneous_transform4,
    strongly_connected,
    topdown_embedding,
    transform_sequence,
    universal_transform,
)
from .families import generate  # noqa: F401
from .probes import probe  # noqa: F401
