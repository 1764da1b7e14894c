"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis.simulate import simulate_ssn_cache_clear
from repro.cli import build_parser, main
from repro.observability import metrics as obs_metrics


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fit_defaults(self):
        args = build_parser().parse_args(["fit"])
        assert args.tech == "tsmc018"
        assert args.strength == 1.0

    def test_estimate_requires_drivers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate"])

    def test_unknown_tech_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fit", "--tech", "tsmc007"])

    def test_report_choices(self):
        args = build_parser().parse_args(["report", "fig1"])
        assert args.experiment == "fig1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "fig9"])

    @pytest.mark.parametrize("knob", ["n_drivers", "inductance",
                                      "capacitance", "rise_time"])
    def test_sweep_takes_every_knob_the_service_sweeps(self, knob):
        args = build_parser().parse_args(
            ["sweep", "--knob", knob, "--values", "2e-9,5e-9"])
        assert args.knob == knob

    @pytest.mark.parametrize("command", [
        ["estimate", "-n", "4"], ["sweep", "--values", "1"],
        ["montecarlo", "-n", "4"], ["simulate", "-n", "4"],
    ], ids=lambda argv: argv[0])
    def test_spec_flags_are_shared(self, command):
        parser = build_parser()
        defaults = parser.parse_args(command)
        assert (defaults.inductance, defaults.capacitance,
                defaults.rise_time) == (5e-9, None, 0.5e-9)
        args = parser.parse_args(
            command + ["-l", "2e-9", "-c", "1e-12", "-t", "1e-9"])
        assert (args.inductance, args.capacitance, args.rise_time) == (
            2e-9, 1e-12, 1e-9)

    def test_serve_takes_the_campaign_runner_flags(self, monkeypatch):
        """``serve`` shares the campaign commands' four runner flags (same
        names, same defaults) and hands them to its ServiceConfig."""
        import repro.service

        parser = build_parser()
        runner = ("max_retries", "deadline", "chunk_size", "workers")
        serve = parser.parse_args(["serve"])
        campaign = parser.parse_args(["simulate", "-n", "1"])
        assert ({k: getattr(serve, k) for k in runner}
                == {k: getattr(campaign, k) for k in runner}
                == {"max_retries": 2, "deadline": None, "chunk_size": 8,
                    "workers": None})
        configs = []
        monkeypatch.setattr(repro.service, "run_server",
                            lambda config, announce: configs.append(config))
        assert main(["serve", "--max-retries", "5", "--deadline", "30",
                     "--chunk-size", "3", "--workers", "2"]) == 0
        (config,) = configs
        assert (config.max_retries, config.deadline, config.chunk_size,
                config.max_workers) == (5, 30.0, 3, 2)

    @pytest.mark.parametrize("command", [
        ["sweep", "--values", "2"], ["montecarlo", "-n", "4"],
        ["simulate", "-n", "4"], ["serve"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flag,value", [
        ("--workers", "-3"), ("--workers", "-1"), ("--max-retries", "-1"),
        ("--deadline", "0"), ("--deadline", "-5"), ("--deadline", "nan"),
        ("--deadline", "inf"),
    ])
    def test_bad_runner_flags_are_usage_errors(self, command, flag, value,
                                               capsys):
        """A runner setting that cannot work is refused before any run
        starts, naming the flag (never retried, never silently ignored)."""
        with pytest.raises(SystemExit) as exc:
            main(command + [flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err


class TestCommands:
    def test_fit_prints_parameters(self, capsys):
        assert main(["fit"]) == 0
        out = capsys.readouterr().out
        assert "ASDM" in out
        assert "lambda" in out
        assert "alpha-power" in out

    def test_estimate_l_only(self, capsys):
        assert main(["estimate", "-n", "8"]) == 0
        out = capsys.readouterr().out
        assert "Eqn 7" in out
        assert "Table 1" not in out

    def test_estimate_with_capacitance(self, capsys):
        assert main(["estimate", "-n", "8", "-c", "1e-12"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "post-ramp extension" in out

    def test_plan(self, capsys):
        assert main(["plan", "-b", "0.4", "-w", "16"]) == 0
        out = capsys.readouterr().out
        assert "max simultaneous drivers" in out
        assert "skewed launch" in out

    @pytest.mark.parametrize("values", ["2,2.7", "2,abc"],
                             ids=["fraction", "not-a-number"])
    def test_sweep_refuses_values_the_knob_cannot_take(self, values):
        """A fractional driver count is refused, never truncated to 2."""
        with pytest.raises(SystemExit, match="--values"):
            main(["sweep", "--values", values])

    @pytest.mark.parametrize("trials", ["1", "0", "-3"])
    def test_montecarlo_refuses_fewer_than_two_trials(self, trials):
        """A spread needs two draws: a usage error, not a traceback."""
        with pytest.raises(SystemExit, match="--trials:"):
            main(["montecarlo", "-n", "2", "--trials", trials])

    @pytest.mark.parametrize("argv, flag", [
        (["montecarlo", "-n", "2", "--seed", "-1"], "--seed"),
        (["montecarlo", "-n", "2", "--vth-sigma", "-0.01"], "--vth-sigma"),
        (["montecarlo", "-n", "2", "--mu-sigma", "-0.05"], "--mu-sigma"),
        (["montecarlo", "-n", "2", "--mu-sigma", "nan"], "--mu-sigma"),
        (["sweep", "--values", "1,2", "--chunk-size", "0"], "--chunk-size"),
        (["montecarlo", "-n", "2", "--chunk-size", "0"], "--chunk-size"),
        (["simulate", "-n", "1,2", "--chunk-size", "0"], "--chunk-size"),
        (["serve", "--chunk-size", "0"], "--chunk-size"),
        (["serve", "--audit-fraction", "nan"], "--audit-fraction"),
        (["serve", "--audit-fraction", "1.5"], "--audit-fraction"),
        (["serve", "--audit-fraction", "-0.1"], "--audit-fraction"),
        (["estimate", "-n", "4", "--trace", "t.json", "--trace-sample", "5"],
         "--trace-sample"),
        (["estimate", "-n", "4", "--trace", "t.json", "--trace-sample", "nan"],
         "--trace-sample"),
        (["serve", "--port", "-5"], "--port"),
        (["serve", "--port", "65536"], "--port"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_out_of_range_flags_are_usage_errors(self, argv, flag, capsys):
        """Refused at parse time with the flag named, not a ValueError
        traceback from deep inside the run."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_in_range_flags_parse(self):
        args = build_parser().parse_args(
            ["montecarlo", "-n", "2", "--seed", "0", "--vth-sigma", "0",
             "--mu-sigma", "0.1", "--chunk-size", "1"])
        assert (args.seed, args.vth_sigma, args.mu_sigma, args.chunk_size) == (
            0, 0.0, 0.1, 1)

    @pytest.mark.parametrize("port,fraction", [("0", "0"), ("65535", "1")])
    def test_fraction_and_port_edges_parse(self, port, fraction):
        """The ends of ``[0, 1]`` and of the port range are accepted."""
        args = build_parser().parse_args(
            ["serve", "--port", port, "--audit-fraction", fraction,
             "--trace-sample", fraction])
        assert (args.port, args.audit_fraction, args.trace_sample) == (
            int(port), float(fraction), float(fraction))

    def test_surrogate_subcommands_take_the_observability_flags(self):
        """Like every other command, the flags follow the subcommand."""
        parser = build_parser()
        args = parser.parse_args(["surrogate", "fit", "--telemetry",
                                  "--trace", "t.json", "--metrics", "m.prom"])
        assert (args.telemetry, args.trace, args.metrics) == (
            True, "t.json", "m.prom")
        assert parser.parse_args(["surrogate", "inspect", "--telemetry"]).telemetry
        with pytest.raises(SystemExit):
            parser.parse_args(["surrogate", "--telemetry", "fit"])

    def test_report_fig1(self, capsys):
        assert main(["report", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out

    def test_report_damping(self, capsys):
        assert main(["report", "damping"]) == 0
        out = capsys.readouterr().out
        assert "Eqn (27)" in out


class TestTelemetryFlags:
    def test_telemetry_prints_solver_counters(self, capsys):
        # fig2 runs real transients, so the counters must be nonzero.
        assert main(["report", "fig2", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "solver telemetry:" in out
        assert "unrecovered failures:         0" in out

    def test_telemetry_json_writes_run_summary(self, capsys, tmp_path):
        path = tmp_path / "telemetry.json"
        assert main(["report", "fig2", "--telemetry-json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "solver telemetry:" not in out  # json flag alone stays quiet
        data = json.loads(path.read_text())
        assert data["ok"] is True
        assert data["unrecovered_failures"] == 0
        assert data["newton_solves"] > 0
        assert data["accepted_steps"] > 0

    def test_metrics_count_each_engine_run_once(self, tmp_path, capsys):
        """``--metrics`` sees every run as it finishes: the solver counters
        equal the ``--telemetry-json`` view's, and each run is one phase
        sample."""
        simulate_ssn_cache_clear()
        prom, tel = tmp_path / "m.prom", tmp_path / "t.json"
        assert main(["sweep", "--values", "1,2", "-l", "1e-9",
                     "--metrics", str(prom), "--telemetry-json", str(tel)]) == 0
        capsys.readouterr()
        lines = prom.read_text().splitlines()
        solves = json.loads(tel.read_text())["newton_solves"]
        assert solves > 0
        assert f"repro_newton_solves_total {float(solves)!r}" in lines
        assert 'repro_phase_seconds_count{phase="total"} 2' in lines
        assert "repro_newton_iterations_per_solve_count 2" in lines

    def test_registry_disabled_after_command(self, capsys):
        assert main(["report", "fig2", "--telemetry"]) == 0
        capsys.readouterr()
        assert obs_metrics.active_registry() is None

    def test_no_flags_no_telemetry_output(self, capsys):
        assert main(["estimate", "-n", "8"]) == 0
        assert "solver telemetry:" not in capsys.readouterr().out


class TestOfflineStatus:
    def test_counts_kinds_from_record_heads(self, capsys, tmp_path):
        from repro.service import ResultStore

        store = ResultStore(tmp_path / "store")
        store.put("ab" * 32, {"kind": "simulate",
                              "waveforms": {"ssn": {"t": [0.0], "y": [0.0]}}})
        store.put("cd" * 32, {"kind": "montecarlo", "samples": [0.1]})
        torn = store.path_for("ef" * 32)
        torn.parent.mkdir(parents=True)
        torn.write_text("{torn")
        assert main(["status", "--store", str(store.root)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"store {store.root}: 3 records, 0 quarantined" in lines
        for line in ("  ?: 1", "  montecarlo: 1", "  simulate: 1"):
            assert line in lines
        assert torn.exists() and store.quarantined() == []
