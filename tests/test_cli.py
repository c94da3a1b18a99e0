"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments_and_designs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Table1" in out
        assert "north-last" in out
        assert "column-parity" in out


class TestVerify:
    def test_arrow_notation_acyclic(self, capsys):
        assert main(["verify", "X+ X- Y- -> Y+", "--mesh", "4x4"]) == 0
        assert "ACYCLIC" in capsys.readouterr().out

    def test_catalog_name_with_implied_rule(self, capsys):
        assert main(["verify", "odd-even", "--mesh", "4x4"]) == 0

    def test_explicit_rule(self, capsys):
        assert main(["verify", "hamiltonian", "--mesh", "4x4", "--rule", "row-parity"]) == 0

    def test_invalid_design_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "X+ X- Y+ Y-", "--mesh", "4x4"])

    def test_bad_mesh_spec(self):
        with pytest.raises(SystemExit):
            main(["verify", "xy", "--mesh", "huge"])

    def test_unknown_rule(self):
        with pytest.raises(SystemExit):
            main(["verify", "xy", "--mesh", "4x4", "--rule", "nope"])


class TestDesign:
    def test_budget_design(self, capsys):
        assert main(["design", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm 1 output" in out
        assert "ACYCLIC" in out

    def test_bad_budget(self):
        with pytest.raises(SystemExit):
            main(["design", "abc"])


class TestRun:
    def test_single_experiment(self, capsys):
        assert main(["run", "Fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig4" in out and "[PASS]" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "Fig99"])

    def test_failed_check_exits_one(self, capsys, monkeypatch, tmp_path):
        import repro.experiments
        from repro.experiments import ExperimentResult, check_eq, check_true
        from repro.obs.ledger import RunLedger

        def failing():
            checks = (check_true("holds", True), check_eq("count", 3, 4))
            return ExperimentResult("X1", "a failing claim", "text", {}, checks)

        monkeypatch.setattr(repro.experiments, "ALL_EXPERIMENTS", {"X1": failing})
        ledger = tmp_path / "ledger"
        assert main(["run", "all", "--ledger", str(ledger)]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] count" in captured.out
        assert "1 experiment(s) FAILED" in captured.err
        (record,) = RunLedger(ledger).records()
        assert (record.kind, record.spec, record.outcome) == ("experiment", "X1", "failed")


class TestSimulate:
    def test_catalog_design(self, capsys):
        code = main(
            ["simulate", "north-last", "--mesh", "4x4", "--cycles", "300",
             "--rate", "0.05"]
        )
        assert code == 0
        assert "delivered" in capsys.readouterr().out

    def test_arrow_notation(self, capsys):
        code = main(
            ["simulate", "X- -> X+ Y+ Y-", "--mesh", "4x4", "--cycles", "200"]
        )
        assert code == 0

    def test_fault_injection_with_recovery(self, capsys):
        code = main(
            ["simulate", "negative-first", "--mesh", "4x4", "--cycles", "200",
             "--rate", "0.05", "--fail-link", "1,1-2,1", "--fail-at", "50",
             "--drops", "1", "--recover"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered" in out
        assert "reroute" in out.lower()

    def test_bad_link_spec_exits(self):
        with pytest.raises(SystemExit):
            main(
                ["simulate", "negative-first", "--mesh", "4x4",
                 "--fail-link", "garbage"]
            )


class TestSimulateCache:
    def test_second_run_served_from_cache(self, capsys, tmp_path):
        argv = ["simulate", "north-last", "--mesh", "4x4", "--cycles", "300",
                "--rate", "0.05", "--cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "cache" not in capsys.readouterr().out
        assert main(argv) == 0
        assert "served from cache" in capsys.readouterr().out

    def test_bad_jobs_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "xy", "--mesh", "4x4", "--jobs", "0"])


class TestBackendFlag:
    ARGS = ["--mesh", "4x4", "--cycles", "200", "--rate", "0.05"]

    def _cache(self, tmp_path):
        return ["--cache", "--cache-dir", str(tmp_path)]

    @pytest.mark.parametrize("backend", ["reference", "vector"])
    def test_negative_cycles_refused(self, backend):
        with pytest.raises(SystemExit, match="cycles must be >= 0, got -5"):
            main(["simulate", "xy", "--mesh", "4x4", "--cycles", "-5", "--rate", "0.1",
                  "--backend", backend])

    def test_vector_prints_reference_stats(self, capsys):
        assert main(["simulate", "xy", *self.ARGS, "--backend", "reference"]) == 0
        reference = capsys.readouterr().out
        assert main(["simulate", "xy", *self.ARGS, "--backend", "vector"]) == 0
        assert capsys.readouterr().out == reference

    @pytest.mark.parametrize("cached", [False, True])
    def test_sweep_vector_refuses_random_selection(self, tmp_path, capsys, cached):
        argv = ["sweep", "xy", "--mesh", "4x4", "--rates", "0.05", "--cycles", "200",
                "--selection", "random", *self._cache(tmp_path)]
        if cached:
            assert main(argv) == 0
            assert main(argv) == 0
            assert "cache 1 hit/0 miss" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="does not support selection='random'"):
            main(argv + ["--backend", "vector"])

    @pytest.mark.parametrize("cached", [False, True])
    def test_simulate_vector_refuses_metrics(self, tmp_path, capsys, cached):
        argv = ["simulate", "xy", *self.ARGS, *self._cache(tmp_path)]
        if cached:
            assert main(argv) == 0
            assert main(argv) == 0
            assert "served from cache" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="does not support metrics= telemetry"):
            main(argv + ["--backend", "vector", "--metrics-out", str(tmp_path / "m.jsonl")])

    def test_simulate_vector_refuses_a_cached_faulted_point(self, tmp_path, capsys):
        argv = ["simulate", "negative-first", *self.ARGS, "--drops", "1",
                *self._cache(tmp_path)]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "served from cache" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="does not support fault injection"):
            main(argv + ["--backend", "vector"])


class TestSweepCommand:
    def test_table_and_summary(self, capsys, tmp_path):
        argv = ["sweep", "west-first", "--mesh", "4x4",
                "--rates", "0.02,0.05", "--cycles", "300",
                "--cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "west-first" in out
        assert "0.020" in out
        assert "cache 0 hit/2 miss" in out

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache 2 hit/0 miss" in out
        assert "0 sim cycles" in out

    def test_report_file(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "report.json"
        argv = ["sweep", "xy", "--mesh", "4x4", "--rates", "0.02",
                "--cycles", "200", "--report", str(report_path)]
        assert main(argv) == 0
        payload = json.loads(report_path.read_text())
        assert payload["n_points"] == 1

    def test_jobs_flag(self, capsys):
        argv = ["sweep", "xy", "--mesh", "4x4", "--rates", "0.02,0.05",
                "--cycles", "200", "--jobs", "2"]
        assert main(argv) == 0

    def test_unknown_routing_exits(self):
        with pytest.raises(SystemExit):
            main(["sweep", "not-a-routing", "--mesh", "4x4", "--rates", "0.02"])


class TestRunEngineFlags:
    def test_run_with_jobs(self, capsys):
        assert main(["run", "Fig4", "--jobs", "2"]) == 0
        assert "[PASS]" in capsys.readouterr().out


class TestCampaignEngineFlags:
    """fuzz and chaos trials never read the result cache, so those verbs
    take ``--jobs`` alone."""

    @pytest.mark.parametrize("verb", ["fuzz", "chaos"])
    @pytest.mark.parametrize(
        "flags", [["--cache"], ["--no-cache"], ["--cache-dir", "DIR"]]
    )
    def test_cache_flags_rejected(self, verb, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["fuzz", "chaos"])
    def test_jobs_still_accepted(self, verb):
        with pytest.raises(SystemExit, match="--jobs must be >= 1"):
            main([verb, "--jobs", "0", "--quiet"])


class TestLogic:
    def test_emits_routing_pseudocode(self, capsys):
        assert main(["logic", "north-last", "--mesh", "4x4"]) == 0
        out = capsys.readouterr().out
        assert "if X_offset" in out
        assert "arriving on" in out


class TestTelemetryCli:
    def _export(self, tmp_path, capsys):
        mpath = tmp_path / "metrics.jsonl"
        code = main(
            ["simulate", "west-first", "--mesh", "4x4", "--cycles", "300",
             "--rate", "0.05", "--metrics-out", str(mpath),
             "--sample-every", "50"]
        )
        assert code == 0
        capsys.readouterr()
        return mpath

    def test_simulate_exports_metrics_and_trace(self, capsys, tmp_path):
        mpath = tmp_path / "metrics.jsonl"
        tpath = tmp_path / "trace.jsonl"
        code = main(
            ["simulate", "xy", "--mesh", "4x4", "--cycles", "200",
             "--rate", "0.05", "--metrics-out", str(mpath),
             "--trace-out", str(tpath)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics:" in out and "trace:" in out
        assert mpath.exists() and tpath.exists()
        import json

        first = json.loads(mpath.read_text().splitlines()[0])
        assert first["record"] == "meta"

    def test_inspect_renders_all_sections(self, capsys, tmp_path):
        mpath = self._export(tmp_path, capsys)
        assert main(["inspect", str(mpath)]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "link utilization" in out
        assert "no deadlock forensics" in out

    def test_inspect_heatmap_only(self, capsys, tmp_path):
        mpath = self._export(tmp_path, capsys)
        assert main(["inspect", str(mpath), "--heatmap"]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" not in out
        # west-first partitions key the rollup
        assert "P1" in out or "X-" in out or "partition" in out

    def test_inspect_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(SystemExit):
            main(["inspect", str(bad)])

    def test_inspect_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["inspect", str(tmp_path / "absent.jsonl")])

    def test_sweep_metrics_out_writes_per_point_lines(self, capsys, tmp_path):
        import json

        mpath = tmp_path / "sweep-metrics.jsonl"
        argv = ["sweep", "xy", "--mesh", "4x4", "--rates", "0.02,0.05",
                "--cycles", "200", "--metrics-out", str(mpath),
                "--sample-every", "50"]
        assert main(argv) == 0
        assert "per-point metrics" in capsys.readouterr().out
        lines = mpath.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(ln) for ln in lines]
        assert all(r["record"] == "sweep-point" for r in records)
        assert [r["injection_rate"] for r in records] == [0.02, 0.05]
        assert all(r["samples"] > 0 for r in records)


class TestLint:
    def test_catalog_design_clean_exit_zero(self, capsys):
        assert main(["lint", "west-first"]) == 0
        out = capsys.readouterr().out
        assert "west-first" in out
        assert "checked 1 design(s)" in out

    def test_all_catalog_designs_lint_clean(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out.splitlines()[-1]

    def test_invalid_design_reports_and_fails(self, capsys):
        assert main(["lint", "X+ X- Y+ Y- -> X2+"]) == 1
        out = capsys.readouterr().out
        assert "EBDA001" in out
        assert "error" in out

    def test_fail_on_never_masks_exit(self, capsys):
        assert main(["lint", "X+ X- Y+ Y- -> X2+", "--fail-on", "never"]) == 0

    def test_fail_on_note_tightens(self, capsys):
        # west-first is error-free but carries EBDA010 notes
        assert main(["lint", "west-first", "--fail-on", "note"]) == 1

    def test_torus_topology_flags_unbroken_rings(self, capsys):
        assert main(["lint", "X+ X- -> Y+ Y-", "--torus", "4x4"]) == 1
        assert "EBDA005" in capsys.readouterr().out

    def test_no_topology_skips_ring_check(self, capsys):
        assert main(["lint", "X+ X- -> Y+ Y-", "--no-topology"]) == 0

    def test_select_runs_exactly_those_rules(self, capsys):
        import json

        assert main([
            "lint", "west-first", "--select", "EBDA001,EBDA011",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["designs"][0]["rules_run"] == ["EBDA001", "EBDA011"]

    def test_unknown_select_exits(self):
        with pytest.raises(SystemExit, match="unknown rule id"):
            main(["lint", "xy", "--select", "EBDA999"])

    def test_sarif_output_to_file(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "lint.sarif"
        assert main([
            "lint", "west-first", "--format", "sarif",
            "--output", str(out_file),
        ]) == 0
        log = json.loads(out_file.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_baseline_round_trip(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        bad = "X+ X- Y+ Y- -> X2+"
        assert main(["lint", bad, "--write-baseline", str(baseline)]) == 0
        assert main(["lint", bad, "--baseline", str(baseline)]) == 0

    def test_missing_baseline_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["lint", "xy", "--baseline", str(tmp_path / "nope.json")])

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "EBDA001" in out and "EBDA011" in out
        assert "Theorem 1" in out

    def test_nothing_to_lint_exits(self):
        with pytest.raises(SystemExit, match="nothing to lint"):
            main(["lint"])

    def test_unparseable_design_exits(self):
        with pytest.raises(SystemExit, match="cannot parse"):
            main(["lint", "garbage spec"])

    def test_full_adaptive_claim_arms_ebda009(self, capsys):
        assert main(["lint", "X+ X- Y- -> Y+", "--full-adaptive"]) == 1
        assert "EBDA009" in capsys.readouterr().out


class TestChaosCli:
    ARGS = ["chaos", "--trials", "6", "--cycles", "150", "--mesh", "3x3"]

    def test_runs_and_reports(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "chaos survival report" in out
        assert "P[delivered]" in out

    def test_zero_cycles_refused(self):
        with pytest.raises(SystemExit, match="at least one cycle"):
            main(["chaos", "--trials", "2", "--seed", "0", "--cycles", "0"])

    def test_out_writes_loadable_jsonl(self, capsys, tmp_path):
        from repro.chaos import load_survival

        path = tmp_path / "campaign.jsonl"
        assert main(self.ARGS + ["--out", str(path)]) == 0
        records = load_survival(path)
        assert records[0]["record"] == "campaign-meta"
        assert sum(1 for r in records if r["record"] == "trial") == 6

    def test_out_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_load_renders_existing_report(self, capsys, tmp_path):
        path = tmp_path / "campaign.jsonl"
        main(self.ARGS + ["--out", str(path)])
        capsys.readouterr()
        assert main(["chaos", "--load", str(path)]) == 0
        assert "chaos survival report" in capsys.readouterr().out

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(SystemExit):
            main(["chaos", "--load", str(bad)])

    def test_checkpoint_resume(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        args = ["chaos", "--trials", "12", "--cycles", "150", "--mesh", "3x3",
                "--checkpoint-dir", str(ckpt)]
        assert main(args + ["--budget-s", "0"]) == 1  # interrupted -> nonzero
        out = capsys.readouterr().out
        assert "interrupted" in out
        assert main(args) == 0  # resume completes
        assert "12/12" in capsys.readouterr().out

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--trials", "2", "--workloads", "nope"])

    def test_bad_mesh_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--trials", "2", "--mesh", "huge"])


class TestCertify:
    def test_default_certifies_every_family(self, capsys):
        assert main(["certify"]) == 0
        out = capsys.readouterr().out
        assert "dim-order-mesh" in out
        assert "proven clean" in out
        assert "independently re-validated" in out

    def test_broken_family_reports_its_region(self, capsys):
        assert main(["certify", "mesh-backward-turn"]) == 0
        out = capsys.readouterr().out
        assert "EBDA003 fires on every (n, k)" in out

    def test_gate_runs_the_differential(self, capsys):
        assert main(["certify", "dim-order-mesh", "--gate", "10"]) == 0
        out = capsys.readouterr().out
        assert "10 symbolic-vs-concrete checks" in out
        assert "zero disagreements" in out

    def test_json_format_round_trips(self, capsys):
        import json

        assert main(["certify", "alg1-mesh", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["families"][0]["family"] == "alg1-mesh"

    def test_cert_dir_writes_checkable_files(self, capsys, tmp_path):
        import json

        from repro.analyze import SYMBOLIC_FAMILIES, check_certificate

        assert main(["certify", "--all", "--cert-dir", str(tmp_path)]) == 0
        path = tmp_path / "dateline-torus.json"
        certs = json.loads(path.read_text())
        assert certs and all(check_certificate(c).ok for c in certs)
        # One upload-safe file per family ("catalog:xy" -> catalog_xy.json),
        # each round-tripping through the independent checker.
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == len(SYMBOLIC_FAMILIES) == 25
        assert not [f.name for f in files if ":" in f.name]
        assert (tmp_path / "catalog_xy.json").is_file()
        for file in files:
            certs = json.loads(file.read_text())
            assert certs and all(check_certificate(c).ok for c in certs), file.name

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["certify", "no-such-family"])


class TestExists:
    def graph(self, tmp_path, payload):
        import json

        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_cyclic_graph_exits_one_with_witness(self, capsys, tmp_path):
        path = self.graph(
            tmp_path, {"edges": [[0, 1], [1, 2], [2, 0]]}
        )
        assert main(["exists", path]) == 1
        out = capsys.readouterr().out
        assert "no deadlock-free guarantee" in out

    def test_acyclic_graph_exits_zero(self, capsys, tmp_path):
        path = self.graph(tmp_path, {"edges": [[0, 1], [1, 2], [0, 2]]})
        assert main(["exists", path]) == 0
        assert "deadlock-free routing exists" in capsys.readouterr().out

    def test_json_format(self, capsys, tmp_path):
        import json

        path = self.graph(tmp_path, {"edges": [["a", "b"], ["b", "a"]]})
        assert main(["exists", path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["safe"] is False
        assert payload["cycle"]

    def test_design_flag_overrides_file(self, capsys, tmp_path):
        path = self.graph(
            tmp_path,
            {"edges": [[0, 1], [1, 2]], "design": "X+"},
        )
        assert main(["exists", path, "--design", "X+ -> Y+"]) == 0
        assert "X+ -> Y+" in capsys.readouterr().out

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["exists", str(tmp_path / "nope.json")])

    def test_malformed_payload_rejected(self, tmp_path):
        path = self.graph(tmp_path, {"nodes": [1, 2]})
        with pytest.raises(SystemExit):
            main(["exists", path])

    def test_nodes_not_a_list_rejected(self, tmp_path):
        path = self.graph(tmp_path, {"edges": [[0, 1]], "nodes": 5})
        with pytest.raises(SystemExit, match='"nodes" must be a list'):
            main(["exists", path])

    def test_unhashable_edge_label_rejected(self, tmp_path):
        path = self.graph(tmp_path, {"edges": [[{"a": 1}, 2]]})
        with pytest.raises(SystemExit, match="each edge must be a"):
            main(["exists", path])

    def test_edges_object_rejected(self, tmp_path):
        # Iterating {"ab": 1} would yield the key "ab", i.e. the edge a -> b.
        path = self.graph(tmp_path, {"edges": {"ab": 1}})
        with pytest.raises(SystemExit, match='"edges" must be a list'):
            main(["exists", path])

    def test_edge_string_rejected(self, tmp_path):
        path = self.graph(tmp_path, {"edges": ["ab"]})
        with pytest.raises(SystemExit, match='"edges" must be a list'):
            main(["exists", path])

    def test_nodes_string_rejected(self, tmp_path):
        # Iterating "abc" would load three nodes.
        path = self.graph(tmp_path, {"edges": [["a", "b"]], "nodes": "abc"})
        with pytest.raises(SystemExit, match='"nodes" must be a list'):
            main(["exists", path])

    def test_incomparable_labels_rejected(self, tmp_path):
        path = self.graph(tmp_path, {"edges": [[0, "a"], ["a", 0]]})
        with pytest.raises(SystemExit, match="mutually comparable"):
            main(["exists", path])

    def test_complete_digraph_k32(self, capsys, tmp_path):
        """The dense stress point: the full mesh of 32 routers on one class.

        R(R-1) links, and every link waits on all R-1 links leaving its
        head (U-turns included), so the whole wire set is one wait core.
        """
        import json

        r = 32
        edges = [[u, v] for u in range(r) for v in range(r) if u != v]
        path = self.graph(tmp_path, {"edges": edges})
        assert main(["exists", path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph"] == {"nodes": 32, "edges": 992}
        assert (payload["wires"], payload["dependencies"], payload["core"]) == (992, 30752, 992)
        assert payload["cycle"] == ["X+@(0,)->(1,)", "X+@(1,)->(0,)"]

