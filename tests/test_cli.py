"""Tests for the command-line interface."""

import math
import os

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_ks_parsing(self):
        args = build_parser().parse_args(["verify", "--ks", "3,3,3"])
        assert args.ks == (3, 3, 3)

    def test_bad_ks(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--ks", "a,b"])


class TestCommands:
    def test_verify(self, capsys):
        assert main(["verify", "--ks", "2,2,2"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_materialize(self, capsys):
        assert main(["verify", "--ks", "2,2", "--materialize"]) == 0
        assert "graph comparison" in capsys.readouterr().out

    def test_layout(self, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        assert main(["layout", "--ks", "1,1,1", "--svg", str(svg)]) == 0
        out = capsys.readouterr().out
        assert "validation (table): OK" in out
        assert "area" in out
        assert "p99" in out  # wire-length distribution row
        assert svg.exists()

    def test_layout_chunked_flags_same_table(self, capsys):
        assert main(["layout", "--ks", "2,2,2"]) == 0
        plain = capsys.readouterr()
        assert main(["layout", "--ks", "2,2,2", "--memory-budget", "4096"]) == 0
        chunked = capsys.readouterr()
        # the chunk-estimate note rides on stderr next to the cache note
        assert "[chunked " in chunked.err
        # it sizes one chunk; it is not the run's peak
        assert "MiB per chunk]" in chunked.err
        assert "[cache " in chunked.err
        # stdout metrics are byte-identical (strip the timing line)
        strip = lambda s: "\n".join(s.splitlines()[1:])
        assert strip(chunked.out) == strip(plain.out)

    def test_layout_flag_validation_exits_2(self, capsys):
        # the service's message for its execution knob
        for flags, msg in (
            (["--memory-budget", "0"], "must be a positive integer, got 0"),
            (["--memory-budget", "-1"], "must be a positive integer, got -1"),
            (["--memory-budget", "two"], "must be an integer, got 'two'"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["layout", "--ks", "2,2,2", *flags])
            assert exc.value.code == 2
            err = capsys.readouterr().err.splitlines()
            assert err[-1] == ("repro layout: error: argument --memory-budget: "
                               f"memory_budget_bytes {msg}")

    def test_layout_svg_takes_the_service_path(self, capsys, tmp_path):
        assert main(["layout", "--ks", "2,2,2"]) == 0
        plain = capsys.readouterr()
        svg = tmp_path / "out.svg"
        assert main(["layout", "--ks", "2,2,2", "--memory-budget", "4096",
                     "--svg", str(svg)]) == 0
        drawn = capsys.readouterr()
        assert svg.exists()
        # the plain run's metrics, then the drawing (strip the timing line)
        strip = lambda s: "\n".join(s.splitlines()[1:])
        assert strip(drawn.out) == strip(plain.out) + f"\nwrote {svg}"
        with pytest.raises(SystemExit) as exc:
            main(["layout", "--ks", "2,2,2", "--no-validate"])
        assert exc.value.code == 2

    def test_campaign_spec_carries_exec_knobs(self):
        from repro.cli import _campaign_spec, build_parser

        p = build_parser()
        args = p.parse_args(["campaign", "run", "--ks", "1,1,1",
                             "--memory-budget", "8192"])
        spec = _campaign_spec(args)
        assert spec["config"]["layout_memory_budget"] == 8192
        args2 = p.parse_args(["campaign", "run", "--ks", "1,1,1"])
        assert "config" not in _campaign_spec(args2)

    def test_dims(self, capsys):
        assert main(["dims", "--ks", "8,8,8", "--layers", "4"]) == 0
        assert "area" in capsys.readouterr().out

    def test_collinear(self, capsys):
        assert main(["collinear", "-n", "9", "--tracks"]) == 0
        out = capsys.readouterr().out
        assert "20 tracks" in out
        assert "track  19" in out

    def test_board(self, capsys):
        assert main(["board", "--layers", "8"]) == 0
        assert "78400" in capsys.readouterr().out

    def test_package_sweep(self, capsys):
        assert main(["package", "-n", "9", "--max-pins", "64"]) == 0
        assert "(3, 3, 3)" in capsys.readouterr().out

    def test_package_report(self, capsys):
        assert main(["package", "--ks", "3,3,3"]) == 0
        out = capsys.readouterr().out
        assert "row" in out and "nucleus" in out and "naive" in out
        assert "56" in out  # Section 5.2's exact row-partition pins
        assert "FAILED" not in out

    def test_package_report_naive_non_power_of_two(self, capsys):
        assert main(
            ["package", "--ks", "3,3,3", "--scheme", "naive",
             "--rows-per-module", "3"]
        ) == 0
        assert "171" in capsys.readouterr().out  # ceil(512/3) modules

    def test_package_sweep_exact_json(self, capsys, tmp_path):
        out_json = tmp_path / "package.json"
        assert main(
            ["package", "-n", "8", "--exact", "--max-pins", "64",
             "--top", "4", "--json", str(out_json)]
        ) == 0
        assert "pins exact" in capsys.readouterr().out
        import json

        data = json.loads(out_json.read_text())
        assert data["mode"] == "sweep" and data["exact"]
        assert data["num_candidates"] >= 1
        assert all("pins exact" in row for row in data["top"])

    def test_package_sweep_infeasible(self, capsys):
        assert main(["package", "-n", "8", "--max-pins", "1"]) == 1

    def test_package_needs_exactly_one_mode(self, capsys):
        assert main(["package"]) == 2
        assert main(["package", "--ks", "2,2", "-n", "4"]) == 2

    def test_package_report_json(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        assert main(
            ["package", "--ks", "2,2", "--json", str(out_json)]
        ) == 0
        import json

        data = json.loads(out_json.read_text())
        assert data["mode"] == "report" and data["all_match"]

    def test_multilevel(self, capsys):
        assert main(["multilevel", "--ks", "3,3,3"]) == 0
        assert "224" in capsys.readouterr().out

    def test_hypercube(self, capsys):
        assert main(["hypercube", "-n", "4"]) == 0
        assert "Q_4" in capsys.readouterr().out

    def test_benes(self, capsys):
        assert main(["benes", "-n", "4", "--permutations", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("realized=OK") == 2

    def test_benes_batch_json(self, capsys, tmp_path):
        import json

        report = tmp_path / "benes.json"
        assert main(["benes", "-n", "5", "--batch", "20",
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "batch: 20 perms" in out and "realized=OK" in out
        data = json.loads(report.read_text())
        assert data["mode"] == "batch" and data["realized_ok"] is True

    def test_benes_explicit_perm(self, capsys):
        assert main(["benes", "--perm", "3,1,0,2"]) == 0
        out = capsys.readouterr().out
        assert "perm 0: N=4" in out and "realized=OK" in out

    def test_benes_requires_n_or_perm(self, capsys):
        assert main(["benes"]) == 2
        assert "give -n or --perm" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sim", "-n", "0"],
        ["sim", "-n", "3", "--rate", "1.5"],
        ["sim", "-n", "3", "--workers", "0"],
        ["sim", "-n", "3", "--batch", "0"],
        ["benes", "-n", "0"],
        ["benes", "-n", "3", "--perm", "0,1,2"],
        ["benes", "-n", "3", "--batch", "0"],
        ["benes", "-n", "3", "--batch", "4", "--workers", "0"],
        ["package", "-n", "0"],
        # a run dir that cannot be created: accepting the flag writes nothing
        ["campaign", "run", "--ks", "1,1,1", "--workers", "0",
         "--runs-dir", os.path.join(os.devnull, "runs")],
        ["campaign", "resume", os.path.join(os.devnull, "runs", "c0"),
         "--workers", "-3"],
        # the service's bounds, checked at parse time
        ["sim", "-n", "13"],
        ["benes", "-n", "17"],
    ])
    def test_bad_input_exits_2_without_traceback(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects the flag itself
            code = e.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        # one message line; argparse adds its usage lines before it, and
        # names a campaign action's parser "campaign <action>"
        cmd = " ".join(argv[:2] if argv[0] == "campaign" else argv[:1])
        msgs = [l for l in err.splitlines()
                if l and not l.startswith(("usage:", " "))]
        assert len(msgs) == 1 and f"{cmd}: " in msgs[0], err

    @pytest.mark.parametrize("argv, bound", [
        (["ccc", "-n", "3", "--layers", "1"], "L >= 2"),
        (["sort", "-n", "-1"], ">= 1, got -1"),
        # above each declared upper bound (the engine is never reached)
        (["sort", "-n", "40"], "n must be <= 24 (2**n values, bound "
                               "16,777,216), got 40"),
        (["hypercube", "-n", "17"], "n must be <= 16"),
        (["ccc", "-n", "16"], "n must be <= 15"),
        (["omega", "-n", "16"], "n must be <= 15"),
        (["isn-layout", "--ks", "8,8"], "sum(ks) must be <= 15"),
        (["omega", "-n", str(10 ** 5)], "n must be <= 15"),
        # K_n x multiplicity: multiplicity * n(n-1)/2 wires
        (["collinear", "-n", "1449"], "n must be <= 1448"),
        (["collinear", "-n", str(10 ** 5)], "n must be <= 1448"),
        (["collinear", "-n", "1000", "--multiplicity", "3"],
         "multiplicity must be <= 2"),
        (["collinear", "-n", "2", "--multiplicity", str(10 ** 7)],
         "multiplicity must be <= 1048576"),
        # an ISN's 2n*2**n links; 2**sum(ks) FFT points
        (["verify", "--ks", "8,8"], "sum(ks) must be <= 15 (2n*2**n links"),
        (["verify", "--ks", "8,8", "--materialize"], "sum(ks) must be <= 15"),
        (["fft", "--ks", "13,12"], "sum(ks) must be <= 24 (2**sum(ks) "
                                   "points, bound 16,777,216), got 25"),
    ])
    def test_engine_bound_exits_2(self, argv, bound, capsys, monkeypatch):
        """The engine names its bound before it allocates anything."""
        if "must be <=" in bound:
            # a bound that failed to hold would reach the command's first
            # allocation: make that raise instead
            target = {
                "sort": "numpy.random.default_rng",
                "hypercube": "repro.layout.hypercube_layout."
                             "hypercube_2d_layout",
                "ccc": "repro.layout.ccc_layout.ccc_2d_layout",
                "omega": "repro.topology.omega.Omega.boundary_link_lists",
                "isn-layout": "repro.topology.isn.ISN.boundary_link_lists",
                "collinear": "repro.layout.collinear_layout",
                "verify": "repro.transform.verify_automorphism",
                "fft": "numpy.random.default_rng",
            }[argv[0]]

            def engine(*_a, **_k):
                raise AssertionError(f"{argv[0]} reached {target}")

            monkeypatch.setattr(target, engine)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"{argv[0]}: ") and bound in err, err

    @pytest.mark.parametrize("size, top_of", [
        (lambda n: n, lambda cap: cap),
        (lambda n: n * n, math.isqrt),
        (lambda n: 1 << n, lambda cap: cap.bit_length() - 1),
        (lambda n: n * (n - 1) // 2, None),
    ], ids=["linear", "square", "exponential", "collinear"])
    @pytest.mark.parametrize("cap", [1, 2, 3, 1000, 1 << 20, 1 << 24])
    def test_check_bound_is_logarithmic(self, size, top_of, cap):
        """The bound is found in at most 2*log2(cap) + 2 calls of the
        size arithmetic (2*log2(top) + 2 where the bound top exceeds
        cap: n(n-1)/2 is 1 at n = 2), and it is the largest parameter
        within cap."""
        from repro.cli import _check_bound

        calls = []

        def counted(n):
            calls.append(n)
            return size(n)

        with pytest.raises(ValueError) as exc:
            _check_bound("n", 10 ** 9, counted, cap, "units")
        top = int(str(exc.value).split("<= ")[1].split(" ")[0])
        assert len(calls) <= 2 * math.log2(max(cap, top)) + 2
        if top_of is not None:
            assert top == top_of(cap)
        assert size(top) <= cap < size(top + 1)
        _check_bound("n", top, size, cap, "units")  # the bound itself passes

    def test_fft(self, capsys):
        assert main(["fft", "--ks", "2,2"]) == 0
        assert "max |err|" in capsys.readouterr().out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 4" in out

    def test_ccc(self, capsys):
        assert main(["ccc", "-n", "3"]) == 0
        assert "CCC(3)" in capsys.readouterr().out

    def test_omega(self, capsys):
        assert main(["omega", "-n", "3"]) == 0
        assert "routes checked: 8" in capsys.readouterr().out

    def test_sort(self, capsys):
        assert main(["sort", "-n", "5"]) == 0
        assert "sorted=OK" in capsys.readouterr().out

    def test_isn_layout(self, capsys):
        assert main(["isn-layout", "--ks", "2,2"]) == 0
        assert "valid=OK" in capsys.readouterr().out

    def test_board_svg(self, capsys, tmp_path):
        svg = tmp_path / "board.svg"
        assert main(["board", "--svg", str(svg)]) == 0
        assert svg.exists()


class TestServiceRoundTrip:
    """--json round trips through the cached service layer, plus the
    cache admin subcommands."""

    def test_dims_json_roundtrip(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "dims.json"
        assert main(["dims", "--ks", "2,2,2", "--layers", "4",
                     "--json", str(out_json)]) == 0
        data = json.loads(out_json.read_text())
        assert data["kind"] == "dims"
        assert data["params"] == {
            "ks": [2, 2, 2], "layers": 4, "node_side": 4,
        }
        assert data["summary"]["area"] > 0

    def test_layout_json_roundtrip(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "layout.json"
        assert main(["layout", "--ks", "1,1,1", "--json", str(out_json)]) == 0
        data = json.loads(out_json.read_text())
        assert data["kind"] == "layout" and data["valid"]
        assert data["params"]["ks"] == [1, 1, 1]
        assert data["summary"]["wires"] > 0
        assert "p99" in data["wire_stats"]

    def test_package_json_roundtrip(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "package.json"
        assert main(["package", "--ks", "2,2,2", "--json",
                     str(out_json)]) == 0
        data = json.loads(out_json.read_text())
        assert data["mode"] == "report" and data["all_match"]
        assert {s["scheme"] for s in data["schemes"]} == {
            "row", "nucleus", "naive",
        }

    def test_benes_json_roundtrip(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "benes.json"
        assert main(["benes", "-n", "4", "--batch", "6", "--seed", "9",
                     "--json", str(out_json)]) == 0
        data = json.loads(out_json.read_text())
        assert data["mode"] == "batch" and data["realized_ok"]
        assert data["terminals"] == 16 and data["seed"] == 9
        assert data["crossed"]["max"] <= data["switches"]

    def test_cache_miss_then_hit_same_stdout(self, capsys, tmp_path):
        argv = ["dims", "--ks", "2,2,2",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "[cache miss" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "[cache hit" in second.err
        assert first.out == second.out  # cache state never leaks to stdout

    def test_no_cache_flag(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(["dims", "--ks", "2,2,2", "--cache-dir", str(cache),
                     "--no-cache"]) == 0
        assert "[cache off" in capsys.readouterr().err
        assert main(["cache", "ls", "--cache-dir", str(cache)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_bad_params_exit_2(self, capsys):
        # the service cap exits 2, same as argparse's own errors
        with pytest.raises(SystemExit) as ei:
            main(["dims", "--ks", "13,13"])  # sum(ks) > 24
        assert ei.value.code == 2
        assert "sum(ks) capped" in capsys.readouterr().err

    def test_cache_verify_flags_bitflip(self, capsys, tmp_path):
        import os

        cache = str(tmp_path / "cache")
        assert main(["benes", "-n", "3", "--batch", "2",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        payloads = [
            os.path.join(dirpath, f)
            for dirpath, _dirs, files in os.walk(cache)
            for f in files
            if f == "payload.npz"
        ]
        assert payloads
        with open(payloads[0], "r+b") as fh:
            fh.seek(80)
            b = fh.read(1)
            fh.seek(80)
            fh.write(bytes([b[0] ^ 0xFF]))
        assert main(["cache", "verify", "--cache-dir", cache]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt (quarantined)" in out and "CORRUPT" in out
        # quarantined entry recomputes on the next query ...
        assert main(["benes", "-n", "3", "--batch", "2",
                     "--cache-dir", cache]) == 0
        assert "[cache miss" in capsys.readouterr().err
        # ... and a clean store verifies clean
        assert main(["cache", "verify", "--cache-dir", cache]) == 0

    def test_cache_ls_and_gc(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["dims", "--ks", "2,2,2", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "dims" in out and "1 entries" in out
        assert main(["cache", "gc", "--cache-dir", cache,
                     "--max-age-days", "0"]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_serve_smoke_max_requests_zero(self, capsys, tmp_path):
        assert main(["serve", "--port", "0", "--max-requests", "0",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--quiet"]) == 0
        assert "repro serve: http://" in capsys.readouterr().out


class TestSim:
    def test_single_run(self, capsys):
        assert main(["sim", "-n", "3", "--rate", "0.6", "--cycles", "200",
                     "--warmup", "50"]) == 0
        out = capsys.readouterr().out
        assert "throughput/input" in out
        assert "max queue" in out

    def test_sweep(self, capsys):
        assert main(
            ["sim", "-n", "3", "--rates", "0.3,0.8", "--cycles", "200",
             "--warmup", "50", "--seeds", "0,1"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("0.3") >= 2  # one row per (rate, seed)

    def test_saturation(self, capsys):
        assert main(["sim", "-n", "3", "--cycles", "300", "--saturation"]) == 0
        assert "1/(n+1) wall" in capsys.readouterr().out

    def test_saturation_short_run_without_drain(self, capsys):
        """``--drain 0`` used to exit 2 at the service bound, and a
        150-cycle search used to print 0.0000."""
        assert main(
            ["sim", "-n", "4", "--saturation", "--cycles", "150",
             "--drain", "0"]
        ) == 0
        assert "n=4: 0.2000 " in capsys.readouterr().out

    def test_trace_export(self, capsys, tmp_path):
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        assert main(
            ["sim", "-n", "3", "--rate", "0.7", "--cycles", "150",
             "--warmup", "50",
             "--trace-csv", str(csv_path), "--trace-json", str(json_path)]
        ) == 0
        assert csv_path.exists() and json_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "cycle,injected,delivered,in_flight,max_depth"

    @pytest.mark.parametrize("argv", [
        ["sim", "-n", "3", "--cycles", "100", "--warmup", "100"],
        ["sim", "-n", "3", "--rates", "0.3,0.8", "--cycles", "100",
         "--warmup", "150"],
        ["sim", "-n", "3", "--rates", "0.3,0.8", "--seeds", "0,1,2",
         "--batch", "2", "--workers", "2", "--cycles", "100",
         "--warmup", "100"],
    ], ids=["single", "sweep", "sweep-pool"])
    def test_rejects_an_empty_measured_window(self, argv, capsys):
        """Both direct modes refuse ``--warmup >= --cycles`` with one
        ``sim:`` line, as the ``sim`` query does, instead of printing
        offered 0 and latency ``inf``."""
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "sim: need 0 <= warmup < cycles (a measured window), "
            f"got warmup={argv[argv.index('--warmup') + 1]}, cycles=100"
        ]

    def test_sweep_rejects_trace(self, tmp_path):
        assert main(
            ["sim", "-n", "3", "--rates", "0.3,0.8", "--trace-csv",
             str(tmp_path / "t.csv")]
        ) == 2
