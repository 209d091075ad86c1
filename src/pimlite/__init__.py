"""Desk-scale functional model of an UPMEM-style processing-in-memory system
with a collective-communication and iterator programming layer on top.

The layers, bottom to top:

* :mod:`pimlite.device` -- cores with private DRAM banks and scratchpads,
  DMA constraints, kernel launches, traffic counters.
* :mod:`pimlite.management` -- the host-side registry of device arrays.
* :mod:`pimlite.comm` -- broadcast / scatter / gather plus the host-mediated
  allreduce / allgather collectives.
* :mod:`pimlite.processing` -- map, keyed reduction (shared or thread-private
  accumulators) and lazy zip, sized by one planner, :func:`plan_iterator`,
  and run through one iterator path.  Every public operation that raises
  follows one rollback rule, stated in :mod:`pimlite.processing`.
* :mod:`pimlite.apps` -- six benchmark workloads with sequential oracles.
* :mod:`pimlite.harness` -- scaling experiments, CSV output, verification.
"""

from .apps import BenchmarkSpec
from .comm import (
    TransferPlan,
    allgather,
    allreduce,
    broadcast,
    gather,
    plan_scatter,
    scatter,
)
from .device import (
    TO_HOST,
    TO_PIM,
    DeviceConfig,
    PimDevice,
    TrafficStats,
    TransferRecord,
)
from .errors import (
    AlignmentViolation,
    ArrayInUse,
    DistributionMismatch,
    DuplicateArrayId,
    ElementTooLarge,
    HandleKindMismatch,
    HostBufferInvalid,
    InvalidArgument,
    InvalidCombiner,
    InvalidHandleKind,
    LengthMismatch,
    LockMisuse,
    MissingCallback,
    NoFeasiblePlan,
    OracleMismatch,
    OutOfBankMemory,
    OutOfBounds,
    PimError,
    ScratchpadOverflow,
    SizeLimitViolation,
    TaskletCountInvalid,
    UnequalSliceSizes,
    UnknownArrayId,
    WrongLayout,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    emit_csv,
    main,
    run_experiment,
    verify_all,
)
from .management import (
    LAYOUT_LAZY_ZIP,
    LAYOUT_REPLICATED,
    LAYOUT_SCATTERED,
    ArrayMetadata,
    ManagementContext,
)
from .processing import (
    MAP,
    REDUCE,
    VARIANT_PRIVATE,
    VARIANT_SHARED,
    ZIP,
    Handle,
    IteratorPlan,
    array_map,
    array_red,
    array_zip,
    compute_batch_elems,
    create_handle,
    free_handle,
    plan_iterator,
    update_context,
)

__version__ = "0.1.0"
