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


def element_bytes(mgmt, meta) -> bytes:
    """The bytes of the elements of the array ``meta`` describes, core by
    core; a lazy zip holds none of its own."""
    if meta.bank_offset is None:
        return b""
    banks, offset = mgmt.device.banks, meta.bank_offset
    return b"".join(banks[core, offset:offset + n * meta.type_size].tobytes()
                    for core, n in enumerate(meta.per_core_elems))


def keep_freed_elements(mgmt) -> list:
    """From now on, append ``(id, element bytes)`` of each array that
    ``mgmt`` frees to the returned list, just before the array goes."""
    freed, free = [], mgmt.free

    def recording_free(array_id):
        freed.append((array_id, element_bytes(mgmt, mgmt.lookup(array_id))))
        free(array_id)

    mgmt.free = recording_free
    return freed


def defined_state(mgmt, freed=()):
    """What the model defines after a sequence of calls: ``(id, element
    bytes)`` of every array, those in ``freed`` and then those still
    registered, the traffic counters, the transfer log and ``last_plan``.
    Scratchpad bytes and bank padding past an array's last element are
    undefined after a launch, so they are left out.  Compare with ``==``."""
    dev = mgmt.device
    arrays = list(freed) + [(array_id, element_bytes(mgmt, meta))
                            for array_id, meta in mgmt.registry.items()]
    return arrays, dev.stats.copy(), list(dev.transfer_log), mgmt.last_plan


@pytest.fixture
def mgmt() -> ManagementContext:
    return make_mgmt()
