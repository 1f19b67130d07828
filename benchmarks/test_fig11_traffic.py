"""Fig. 11: total write I/O per tier and space usage (the background-traffic
headline) — uniform YCSB-A with 1 KB values.

Paper shapes asserted:
* HyperDB writes the least in total (the paper reports a 60.3% overall
  reduction vs RocksDB: 75.2% on NVMe, 43.1% on SATA);
* the secondary-cache baseline writes *more* than plain RocksDB;
* HyperDB trades a little SATA space for the write savings (semi-SSTables
  retain stale blocks; +10.9% in the paper).
"""

from repro.bench.context import BenchScale
from repro.bench.experiments import fig11_background_traffic


def test_fig11_background_traffic(benchmark):
    scale = BenchScale.default(value_size=1024, record_count=6000, nvme_ratio=0.8)
    result = benchmark.pedantic(
        lambda: fig11_background_traffic(scale), rounds=1, iterations=1
    )
    raw = result["raw"]

    def total_writes(store):
        return raw[store].write_bytes("nvme") + raw[store].write_bytes("sata")

    # HyperDB's write volume is well below RocksDB's on both tiers.
    assert raw["hyperdb"].write_bytes("nvme") < raw["rocksdb"].write_bytes("nvme")
    assert raw["hyperdb"].write_bytes("sata") < raw["rocksdb"].write_bytes("sata")
    # Total reduction measured here: 33.3 % (HyperDB / RocksDB = 0.667)
    # since NVMe slot writes commit in windows of 32 puts (24.3 % before);
    # asserted with a 5-point margin.
    assert total_writes("hyperdb") < 0.72 * total_writes("rocksdb")

    # The secondary cache pays admission writes on top of the full LSM.
    assert total_writes("rocksdb-sc") > total_writes("rocksdb")

    # Space-for-writes trade: HyperDB's SATA footprint may exceed RocksDB's
    # (stale blocks awaiting full compaction; +10.9% in the paper), but the
    # debt is bounded by T_clean.
    assert raw["hyperdb"].space_used["sata"] < raw["rocksdb"].space_used["sata"] * 2.0
