"""Tests for the benchmark harness plumbing (not the experiments)."""

import pytest

from repro.bench import BenchScale, STORE_NAMES, build_store, format_table
from repro.bench.context import env_scale
from repro.bench.reporting import kops, mb
from repro.common.keys import encode_key


class TestBenchScale:
    def test_dataset_math(self):
        s = BenchScale(record_count=1000, value_size=128)
        assert s.record_size == 14 + 8 + 128 + 1  # header incl. flags byte
        assert s.dataset_bytes == 1000 * s.record_size

    def test_device_sizes_follow_ratios(self):
        s = BenchScale(record_count=50_000, nvme_ratio=0.5, sata_multiple=10)
        assert abs(s.nvme_bytes - s.dataset_bytes * 0.5) < 4096
        assert abs(s.sata_bytes - s.dataset_bytes * 10) < 4096

    def test_floors_apply(self):
        s = BenchScale(record_count=10, nvme_ratio=0.01)
        assert s.nvme_bytes >= 512 * 1024

    def test_key_space_covers_inserts(self):
        s = BenchScale(record_count=1000)
        assert s.key_space.contains(encode_key(1000))  # insert headroom
        assert s.key_space.contains(encode_key(1400))

    def test_devices_distinct(self):
        nvme, sata = BenchScale(record_count=1000).devices()
        assert nvme.profile.name == "nvme" and sata.profile.name == "sata"
        assert nvme is not sata


class TestEnvScale:
    def test_default_and_valid_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert env_scale() == 1.0
        monkeypatch.setenv("REPRO_SCALE", "0.08")
        assert env_scale() == 0.08
        assert BenchScale.default(record_count=1000).record_count == 80

    @pytest.mark.parametrize("text", ["x", "0", "-1", "nan", "inf"])
    def test_bad_values_name_the_variable(self, monkeypatch, text):
        monkeypatch.setenv("REPRO_SCALE", text)
        with pytest.raises(ValueError, match=f"REPRO_SCALE.*{text!r}"):
            env_scale()
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            BenchScale.default()

    def test_cli_exits_2_with_the_message(self, monkeypatch, capsys):
        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_SCALE", "0")
        assert main(["fig6a"]) == 2
        assert "REPRO_SCALE" in capsys.readouterr().out


class TestBuildStore:
    @pytest.mark.parametrize("name", STORE_NAMES)
    def test_all_engines_constructible_and_usable(self, name):
        store = build_store(name, BenchScale(record_count=2000))
        store.put(encode_key(1), b"v")
        assert store.get(encode_key(1))[0] == b"v"
        assert set(store.devices()) == {"nvme", "sata"}

    def test_unknown_store_rejected(self):
        with pytest.raises(ValueError):
            build_store("leveldb", BenchScale(record_count=100))


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(
            "T", ["col", "x"], [["a", 1.23456], ["long-cell", 2.0]]
        )
        lines = out.splitlines()
        assert lines[0] == "== T =="
        assert "long-cell" in lines[4]
        # Header and rows aligned: same prefix width before second column.
        assert lines[1].index("x") == lines[3].index("1.23")

    def test_unit_helpers(self):
        assert mb(1 << 20) == 1.0
        assert kops(2000) == 2.0
