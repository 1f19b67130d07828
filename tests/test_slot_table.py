"""The slot table (:class:`repro.nvme.zone.SlotTable`) is the one owner of
slot state: the index, the zones by id, and every change to them.

One test scans ``src/repro`` so no other module reaches into a zone or a
partition's zone tables; the other pins where slots land after a
checkpoint is recovered, the step that rebuilds every page's free-slot list.
"""

import ast
from pathlib import Path

import repro
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.nvme import NVMeConfig
from repro.nvme.pagestore import PageStore
from repro.nvme.partition import Partition
from repro.simssd import DeviceProfile, SimDevice

SRC = Path(repro.__file__).parent
ZONE_MODULE = SRC / "nvme" / "zone.py"
#: A partition's zone tables, written only through its own methods.
PARTITION_STATE = {"_zones", "_zone_bounds", "_zone_map", "_used_pages_box"}


def zone_private_attributes() -> set[str]:
    """The underscore attributes :class:`repro.nvme.zone.Zone` assigns."""
    tree = ast.parse(ZONE_MODULE.read_text())
    (zone,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Zone")
    return {
        n.attr for n in ast.walk(zone)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and n.attr.startswith("_")
    }


def written_attributes(tree):
    """Every ``obj.attr`` an assignment, augmented assignment or ``del``
    writes, directly or through a subscript (``obj.attr[i] = ...``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute):
                    yield sub


def test_slot_state_is_written_only_by_its_owners():
    forbidden = zone_private_attributes() | PARTITION_STATE
    assert {"_pages", "_open", "_total_pages"} <= forbidden
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        if path == ZONE_MODULE:
            continue
        tree = ast.parse(path.read_text())
        where = path.relative_to(SRC)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "_ZonePage") or (
                isinstance(node, ast.alias) and node.name == "_ZonePage"
            ):
                offences.append(f"{where}: names _ZonePage")
        for attr in written_attributes(tree):
            owner = attr.value
            if attr.attr in forbidden and not (
                isinstance(owner, ast.Name) and owner.id == "self"
            ):
                offences.append(f"{where}:{attr.lineno}: writes .{attr.attr}")
    assert offences == []


def test_placement_after_recovery_is_pinned():
    # Slots freed before the checkpoint (three resizes, one drop) come back
    # as range(num_slots) less the used ones, and allocation pops the
    # highest: the new slots land at the back of the last open page, not
    # in the order the frees happened.
    device = SimDevice(
        DeviceProfile(
            name="nvme", capacity_bytes=8 << 20, page_size=4096,
            read_latency_s=8e-5, write_latency_s=2e-5,
            read_bandwidth=6.5e9, write_bandwidth=3.5e9,
        )
    )
    part = Partition(
        0, KeyRange(encode_key(0), encode_key(10_000)), PageStore(device),
        NVMeConfig(num_partitions=1, initial_zones_per_partition=2),
        device.profile.num_pages,
    )
    seqnos = iter(range(1, 1000))

    def put(i, size):
        part.put(Record(encode_key(i), b"v" * size, next(seqnos)))

    def promote(i):
        part.promote(Record(encode_key(i), b"p" * 100, next(seqnos)))

    for i in range(40):
        put(i, 100)
    for i in (3, 7, 20):
        put(i, 900)
    part.drop_resident(encode_key(11))
    for i in (6000, 6001, 6002):
        promote(i)
    part.checkpoint()
    part.recover()
    assert part.used_pages == 4
    assert list(part.hot_zone.keys) == [encode_key(i) for i in (6000, 6001, 6002)]

    for i in (100, 101, 102, 103, 5, 7000):
        put(i, 100)
    put(104, 900)
    promote(6003)
    placed = [
        (loc.page_id, loc.slot_index)
        for loc in map(part.index.get, map(encode_key, (100, 101, 102, 103, 5, 7000, 104, 6003)))
    ]
    assert placed == [(1, 31), (1, 30), (1, 29), (1, 28), (0, 5), (5, 0), (2, 3), (3, 31)]
    assert part.used_pages == 5
