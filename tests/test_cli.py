"""Tests for the graphcache command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.graph import load_dataset, load_sdf_file, molecule_dataset
from repro.runtime import GCConfig
from repro.server import QueryServer
from repro.workload import Workload


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "graphcache" in capsys.readouterr().out

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-workload", "--policy", "BOGUS"])


class TestGenerateDataset:
    def test_transaction_output(self, tmp_path, capsys):
        output = tmp_path / "data.txt"
        assert main(["generate-dataset", str(output), "--count", "5", "--seed", "1"]) == 0
        assert "wrote 5" in capsys.readouterr().out
        assert len(load_dataset(output)) == 5

    def test_json_output(self, tmp_path):
        output = tmp_path / "data.json"
        assert main(["generate-dataset", str(output), "--count", "4"]) == 0
        assert len(load_dataset(output)) == 4

    def test_sdf_output(self, tmp_path):
        output = tmp_path / "data.sdf"
        assert main(["generate-dataset", str(output), "--count", "3", "--kind", "molecule"]) == 0
        assert len(load_sdf_file(output)) == 3


class TestRunCommands:
    def test_run_workload_synthetic(self, capsys):
        code = main([
            "run-workload", "--dataset-size", "20", "--queries", "8",
            "--cache-capacity", "10", "--window-size", "2", "--seed", "3",
            "--feature-size", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "The Workload Run" in out
        assert "Developer Monitor" in out

    def test_async_maintenance_flag_is_rejected(self, capsys):
        # admission and replacement run on the query's own thread, always
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-workload", "--async-maintenance"])
        assert "unrecognized arguments: --async-maintenance" in capsys.readouterr().err

    def test_run_workload_from_file(self, tmp_path, capsys):
        dataset_path = tmp_path / "data.json"
        main(["generate-dataset", str(dataset_path), "--count", "15", "--seed", "4"])
        capsys.readouterr()
        code = main([
            "run-workload", "--dataset", str(dataset_path), "--queries", "6",
            "--cache-capacity", "8", "--window-size", "2", "--seed", "5",
        ])
        assert code == 0
        assert "The Workload Run" in capsys.readouterr().out

    def test_compare_policies(self, capsys):
        code = main([
            "compare-policies", "--dataset-size", "15", "--queries", "8",
            "--cache-capacity", "8", "--window-size", "2", "--seed", "6",
            "--policies", "LRU", "HD", "--feature-size", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "LRU" in out and "HD" in out
        assert "test_speedup" in out

    def test_journey(self, capsys):
        code = main([
            "journey", "--dataset-size", "20", "--warm-queries", "10",
            "--cache-capacity", "10", "--window-size", "2", "--seed", "7",
            "--query-vertices", "6", "--feature-size", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "The Query Journey" in out
        assert "Answer Set" in out

    def test_run_workload_sharded(self, capsys):
        code = main([
            "run-workload", "--dataset-size", "20", "--queries", "8",
            "--cache-capacity", "10", "--window-size", "2", "--seed", "3",
            "--feature-size", "1", "--shards", "2", "--shard-policy", "round-robin",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "The Workload Run" in out
        assert "Developer Monitor" in out
        # scatter-gather merge time shows up in the stage latency table
        assert "merge" in out

    def test_unknown_shard_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-workload", "--shard-policy", "BOGUS"])


class TestServeCommand:
    def test_serve_for_duration_and_snapshot(self, tmp_path, capsys):
        snapshot = tmp_path / "snapshot.json"
        code = main([
            "serve", "--dataset-size", "10", "--port", "0", "--duration", "0.2",
            "--cache-capacity", "8", "--window-size", "2", "--seed", "3",
            "--feature-size", "1", "--snapshot-path", str(snapshot),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 10 graphs at http://127.0.0.1:" in out
        assert "drained" in out
        assert snapshot.exists()  # saved even when no queries arrived

    def test_batch_delay_flag_is_rejected(self, capsys):
        # serving has no coalescing timer: a batch is whatever is queued
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--batch-delay-ms", "5"])
        assert "unrecognized arguments: --batch-delay-ms" in capsys.readouterr().err

    def test_serve_restores_snapshot(self, tmp_path, capsys):
        snapshot = tmp_path / "snapshot.json"
        dataset = molecule_dataset(10, min_vertices=7, max_vertices=12, rng=2018)
        with QueryServer(dataset, GCConfig(cache_capacity=8, window_size=2),
                         snapshot_path=snapshot) as server:
            from repro.api import RemoteGraphService

            client = RemoteGraphService.for_server(server)
            for graph in dataset[:6]:
                client.run(graph.copy())
        assert snapshot.exists()
        code = main([
            "serve", "--dataset-size", "10", "--port", "0", "--duration", "0.1",
            "--cache-capacity", "8", "--window-size", "2", "--seed", "2018",
            "--feature-size", "1", "--snapshot-path", str(snapshot),
        ])
        assert code == 0
        assert "warm-started" in capsys.readouterr().out

    def test_serve_sharded_snapshot_fans_out(self, tmp_path, capsys):
        snapshot = tmp_path / "snapshot.json"
        code = main([
            "serve", "--dataset-size", "10", "--port", "0", "--duration", "0.2",
            "--cache-capacity", "8", "--window-size", "2", "--seed", "3",
            "--feature-size", "1", "--snapshot-path", str(snapshot),
            "--shards", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "shards=2/hash" in out
        assert snapshot.exists()  # the manifest
        assert (tmp_path / "snapshot-shard0.json").exists()
        assert (tmp_path / "snapshot-shard1.json").exists()


class TestLoadgenCommand:
    @pytest.fixture()
    def server(self):
        dataset = molecule_dataset(10, min_vertices=7, max_vertices=12, rng=2018)
        with QueryServer(dataset, GCConfig(cache_capacity=10, window_size=2)) as srv:
            yield srv

    def test_loadgen_generated_trace(self, server, capsys):
        code = main([
            "loadgen", "--port", str(server.port), "--dataset-size", "10",
            "--queries", "12", "--skew", "zipfian", "--threads", "2", "--seed", "9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved_qps" in out and "p99_ms" in out

    def test_loadgen_save_and_replay_trace(self, server, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main([
            "loadgen", "--port", str(server.port), "--dataset-size", "10",
            "--queries", "10", "--save-trace", str(trace_path), "--threads", "2",
            "--seed", "9",
        ])
        assert code == 0
        assert len(Workload.load(trace_path)) == 10
        capsys.readouterr()
        code = main([
            "loadgen", "--port", str(server.port), "--trace", str(trace_path),
            "--threads", "2", "--qps", "500",
        ])
        assert code == 0
        assert "served" in capsys.readouterr().out

    def test_loadgen_fails_fast_without_server(self):
        with pytest.raises(Exception):
            main(["loadgen", "--port", "1", "--dataset-size", "10", "--queries", "2"])

    def test_removed_loadgen_flags_are_rejected(self, capsys):
        # one client: a thread per connection, no pool to size
        for flag in (["--async-client"], ["--connections", "8"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["loadgen", "--port", "1", *flag])
            assert (f"unrecognized arguments: {' '.join(flag)}"
                    in capsys.readouterr().err)
