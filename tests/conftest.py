import pytest

from pimlite.device import DeviceConfig, PimDevice
from pimlite.management import ManagementContext

TEST_BANK_BYTES = 1 << 20  # keep memory small; geometry defaults stay real


def make_device(cores=2, bank_bytes=TEST_BANK_BYTES, **kw) -> PimDevice:
    return PimDevice(DeviceConfig(num_cores=cores, dram_bank_bytes=bank_bytes, **kw))


def make_mgmt(cores=2, bank_bytes=TEST_BANK_BYTES, **kw) -> ManagementContext:
    return ManagementContext(make_device(cores, bank_bytes, **kw))


def host_state(mgmt, *handles, banks=False):
    """What a public operation that raises must leave as it found it: the
    traffic counters, the bank cursors, the registry, the transfer log,
    ``last_plan`` and the resident context id of each of ``handles``; with
    ``banks``, also every bank byte.  Compare two snapshots with ``==``."""
    dev = mgmt.device
    state = (dev.stats.copy(), list(dev.cursors), dict(mgmt.registry),
             list(dev.transfer_log), mgmt.last_plan, [h.ctx_array_id for h in handles])
    return state + (dev.banks.tobytes(),) if banks else state


@pytest.fixture
def mgmt() -> ManagementContext:
    return make_mgmt()
