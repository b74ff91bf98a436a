"""Exact, desk-scale verification of a paradoxical decomposition of the line.

The integers label the vertices of a free group's Cayley tree; each unit
interval [n, n+1) inherits the class of its word, and piecewise rigid maps
induced by the generators reassemble the pieces into several copies of the
line.  Everything is computed over exact integers and rationals.
"""

from .freegroup import (
    IDENTITY,
    MINUS,
    OMEGA,
    PLUS,
    InvalidLetterError,
    RankError,
    UnreducedWordError,
    Word,
    WordClass,
    WordSyntaxError,
    classify_word,
    enumerate_words,
    format_word,
    invert,
    iter_words,
    multiply,
    parse_word,
    reduce,
    special_index,
)
from .labeling import (
    BallEntry,
    CayleyBall,
    UnsupportedRankError,
    VertexLabeling,
    ball_vertex_count,
    label_from_position,
    position_from_label,
)
from .paradox import (
    BudgetExceededError,
    FreeActionReport,
    MeasureAuditReport,
    ParadoxInstance,
    PartitionReport,
    ReassemblyReport,
    verification_summary,
)
from .permutation import (
    CycleError,
    CyclePermutation,
    IntegerPermutation,
    LabelingMismatchError,
    TreePermutation,
    compose,
    fixed_points_in_window,
    parse_cycles,
)
from .rigid import (
    Piece,
    PiecewiseRigidMap,
    RigidityReport,
    compose_maps,
    rigidity_audit,
)

__version__ = "0.1.0"
