"""Tests of the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["table1"]).command == "table1"
        args = parser.parse_args(["simulate", "outdir", "--n-snps", "10"])
        assert args.command == "simulate" and args.n_snps == 10
        args = parser.parse_args(["run", "--population-size", "40", "--workers", "2"])
        assert args.population_size == 40 and args.workers == 2

    def test_experiment_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["robustness", "--runs", "3"]).runs == 3
        assert parser.parse_args(["objectives", "--per-size", "10"]).per_size == 10
        assert parser.parse_args(["ablation", "--runs", "2"]).runs == 2
        assert parser.parse_args(["table2", "--quick"]).quick is True
        assert parser.parse_args(["landscape", "--panel-size", "12"]).panel_size == 12
        assert parser.parse_args(["evaluate", "dir", "1", "2", "--statistic", "lrt"]
                                 ).statistic == "lrt"

    def test_backend_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--backend", "process-shm", "--chunk-size", "8"])
        assert args.backend == "process-shm" and args.chunk_size == 8
        args = parser.parse_args(["speedup", "--measured", "--backend", "process",
                                  "--chunk-size", "4"])
        assert args.backend == "process" and args.chunk_size == 4
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--backend", "carrier-pigeon"])

    def test_distributed_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--hosts", "node1:7777", "node2:7777"])
        assert args.hosts == ["node1:7777", "node2:7777"]
        args = parser.parse_args(["scan", "--cost-model", "model.json",
                                  "--hosts", "node1:7777"])
        assert args.cost_model == "model.json" and args.hosts == ["node1:7777"]

    def test_worker_command_parses(self):
        parser = build_parser()
        args = parser.parse_args(["worker", "--bind", "0.0.0.0:7777"])
        assert args.command == "worker" and args.bind == "0.0.0.0:7777"
        args = parser.parse_args(["worker", "--bind", ":0", "--max-connections", "2"])
        assert args.max_connections == 2
        with pytest.raises(SystemExit):
            parser.parse_args(["worker"])  # --bind is required


class TestCommands:
    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "18,009,460" in out

    def test_simulate_then_evaluate_and_run(self, tmp_path, capsys):
        study_dir = tmp_path / "study"
        assert main([
            "simulate", str(study_dir), "--n-snps", "12",
            "--n-affected", "15", "--n-unaffected", "15", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "planted causal haplotype" in out
        assert (study_dir / "genotypes.csv").exists()
        assert (study_dir / "frequencies.csv").exists()
        assert (study_dir / "ld.csv").exists()

        assert main(["evaluate", str(study_dir), "2", "5", "8"]) == 0
        out = capsys.readouterr().out
        assert "fitness (T1)" in out
        assert "T4:" in out

        assert main([
            "run", str(study_dir), "--population-size", "15", "--max-size", "3",
            "--stagnation", "3", "--max-generations", "5", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "size 2" in out and "size 3" in out
        assert "evaluations" in out
        # the reuse rate (requests vs evaluations) is surfaced in the summary
        assert "evaluation backend: serial" in out
        assert "requests" in out

    def test_run_with_explicit_backend(self, tmp_path, capsys):
        study_dir = tmp_path / "study"
        main(["simulate", str(study_dir), "--n-snps", "10",
              "--n-affected", "12", "--n-unaffected", "12", "--seed", "9"])
        capsys.readouterr()
        assert main([
            "run", str(study_dir), "--backend", "process", "--workers", "2",
            "--population-size", "10", "--max-size", "3",
            "--stagnation", "2", "--max-generations", "3", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "evaluation backend: process" in out

    @pytest.mark.slow
    def test_run_with_process_shm_backend(self, tmp_path, capsys):
        study_dir = tmp_path / "study"
        main(["simulate", str(study_dir), "--n-snps", "10",
              "--n-affected", "12", "--n-unaffected", "12", "--seed", "9"])
        capsys.readouterr()
        assert main([
            "run", str(study_dir), "--backend", "process-shm", "--workers", "2",
            "--population-size", "10", "--max-size", "3",
            "--stagnation", "2", "--max-generations", "3", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "evaluation backend: process-shm" in out

    def test_run_distributed_flag_validation(self, tmp_path, capsys):
        study_dir = tmp_path / "study"
        main(["simulate", str(study_dir), "--n-snps", "10",
              "--n-affected", "12", "--n-unaffected", "12", "--seed", "9"])
        capsys.readouterr()
        assert main(["run", str(study_dir), "--backend", "process",
                     "--hosts", "localhost:7777"]) == 2
        assert "remote" in capsys.readouterr().err
        assert main(["run", str(study_dir), "--backend", "remote"]) == 2
        assert "--hosts" in capsys.readouterr().err

    def test_scan_distributed_flag_validation(self, capsys):
        assert main(["scan", "--backend", "remote"]) == 2
        assert "--hosts" in capsys.readouterr().err
        assert main(["scan", "--hosts", "localhost:7777"]) == 2
        assert "remote" in capsys.readouterr().err

    def test_run_over_local_worker_host(self, tmp_path, capsys):
        from repro.runtime.remote import LocalWorkerHost

        study_dir = tmp_path / "study"
        main(["simulate", str(study_dir), "--n-snps", "10",
              "--n-affected", "12", "--n-unaffected", "12", "--seed", "9"])
        capsys.readouterr()
        host = LocalWorkerHost()
        try:
            # --hosts alone implies --backend remote
            assert main([
                "run", str(study_dir), "--hosts", host.host,
                "--population-size", "10", "--max-size", "3",
                "--stagnation", "2", "--max-generations", "3", "--seed", "1",
            ]) == 0
        finally:
            host.close()
        assert "evaluation backend: remote" in capsys.readouterr().out

    def test_scan_with_cost_model_file(self, tmp_path, capsys):
        import json

        from repro.parallel.pvm import EvaluationCostModel

        study_dir = tmp_path / "study"
        main(["simulate", str(study_dir), "--n-snps", "12",
              "--n-affected", "12", "--n-unaffected", "12", "--seed", "5"])
        model_path = tmp_path / "cost.json"
        model_path.write_text(json.dumps(
            EvaluationCostModel(base_seconds=0.001, growth_factor=2.2).to_json()
        ))
        capsys.readouterr()
        assert main([
            "scan", str(study_dir), "--window-size", "6", "--window-overlap", "2",
            "--population-size", "6", "--max-size", "2", "--stagnation", "1",
            "--max-generations", "2", "--seed", "17",
            "--cost-model", str(model_path),
        ]) == 0
        assert "windows" in capsys.readouterr().out

    def test_scan_resume_of_another_scans_journal_exits_2(self, tmp_path, capsys):
        study_dir = tmp_path / "study"
        main(["simulate", str(study_dir), "--n-snps", "12",
              "--n-affected", "12", "--n-unaffected", "12", "--seed", "5"])
        checkpoint = str(tmp_path / "scan.jsonl")
        scan = ["scan", str(study_dir), "--window-size", "6", "--window-overlap", "2",
                "--max-size", "2", "--stagnation", "1", "--max-generations", "2",
                "--seed", "17", "--checkpoint", checkpoint]
        assert main(scan + ["--population-size", "6"]) == 0
        capsys.readouterr()
        assert main(scan + ["--population-size", "8", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "different scan" in err and "config_digest" in err
        assert "Traceback" not in err

    def test_scan_cost_model_file_must_be_valid(self, tmp_path, capsys):
        model_path = tmp_path / "cost.json"
        model_path.write_text('{"base_seconds": 0.001}')
        with pytest.raises(ValueError, match="growth_factor"):
            main(["scan", "--window-size", "6", "--cost-model", str(model_path)])

    def test_speedup_command_simulated_only(self, capsys):
        assert main(["speedup"]) == 0
        assert "Simulated PVM speedup" in capsys.readouterr().out

    def test_evaluate_with_significance(self, tmp_path, capsys):
        study_dir = tmp_path / "study"
        main(["simulate", str(study_dir), "--n-snps", "10",
              "--n-affected", "12", "--n-unaffected", "12", "--seed", "4"])
        capsys.readouterr()
        assert main(["evaluate", str(study_dir), "1", "2", "--significance"]) == 0
        assert "Monte-Carlo" in capsys.readouterr().out
