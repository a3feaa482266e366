import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dllab import cli


def run_cli(argv):
    return cli.main(argv)


def test_verify_writes_schema_report(tmp_path, capsys):
    out = tmp_path / "trace.json"
    rc = run_cli(["verify", "--suite", "trace", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == str(out)
    rep = json.loads(out.read_text())
    assert rep["schema"] == 1
    assert rep["suite"] == "trace"
    for c in rep["claims"]:
        assert set(c) >= {"claim", "status"}
        assert c["status"] == "pass"


def test_verify_stdout_report(capsys):
    rc = run_cli(["verify", "--suite", "orbit", "--q", "2"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schema"] == 1
    assert all(c["status"] == "pass" for c in rep["claims"])


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2


def test_failing_claim_gives_exit_one(tmp_path, monkeypatch, capsys):
    def broken(args):
        return {
            "suite": "broken",
            "params": {},
            "claims": [cli._claim("always wrong", False)],
        }

    monkeypatch.setitem(cli.SUITES, "trace", (broken, *cli.SUITES["trace"][1:]))
    rc = run_cli(["verify", "--suite", "trace", "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "always wrong" in capsys.readouterr().err


def _raise_value_error(args):
    raise ValueError("boom")


def test_unexpected_suite_exception_is_a_failing_claim(monkeypatch, capsys):
    monkeypatch.setitem(cli.SUITES, "trace", (_raise_value_error, *cli.SUITES["trace"][1:]))
    assert run_cli(["verify", "--suite", "trace"]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out)["claims"] == [
        {
            "claim": "suite completed without library errors",
            "status": "fail",
            "witness": {"error": "ValueError: boom"},
        }
    ]
    assert "Traceback" not in out.err


def test_unexpected_dump_exception_is_an_error_line(monkeypatch, capsys):
    monkeypatch.setitem(cli.DUMPS, "points", (_raise_value_error, *cli.DUMPS["points"][1:]))
    assert run_cli(["dump", "--kind", "points"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: ValueError: boom\n"


@pytest.mark.parametrize("argv", [["--q", "5"], ["--q", "2", "--max-size", "1000"], ["--q", "4"]],
                         ids=["q5", "q2-max-size", "q4"])
def test_eigenspaces_refuses_a_twist_table_beyond_max_size(argv, capsys):
    # the table scans q^12 (key, a1, a2) triples: 4^12 exceeds the default
    # 2,000,000, and 2^12 exceeds 1000
    t0 = time.monotonic()
    assert run_cli(["verify", "--suite", "eigenspaces", *argv]) == 1
    assert time.monotonic() - t0 < 10
    [claim] = json.loads(capsys.readouterr().out)["claims"]
    assert claim["status"] == "fail"
    assert claim["witness"]["error"].startswith("SizeLimitExceededError")


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["verify", "--suite", "thm31", "--n", "2", "--q", "2",
                    "--out", str(a)]) == 0
    assert run_cli(["verify", "--suite", "thm31", "--n", "2", "--q", "2",
                    "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_series_report_stable_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["verify", "--suite", "series", "--out", str(a)]) == 0
    assert run_cli(["verify", "--suite", "series", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dump_points_level3(tmp_path):
    out = tmp_path / "pts.csv"
    rc = run_cli(["dump", "--kind", "points", "--n", "2", "--q", "2",
                  "--h", "3", "--s", "1", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["a1", "a2", "a3", "a4"]
    # every representative over the degree-n field is a rational point
    assert len(rows) == 1 + 4**4
    assert rows == sorted(rows, key=lambda r: (r != rows[0], r))


def test_dump_points_level2_counts(tmp_path):
    out = tmp_path / "pts.csv"
    rc = run_cli(["dump", "--kind", "points", "--n", "2", "--q", "2",
                  "--h", "2", "--s", "1", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 1 + 16


def test_dump_char_table(tmp_path):
    out = tmp_path / "ct.csv"
    rc = run_cli(["dump", "--kind", "char-table", "--n", "2", "--q", "2",
                  "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][:3] == ["psi", "conductor_exp", "degree"]
    assert len(rows) == 1 + 4
    degrees = sorted(int(r[2]) for r in rows[1:])
    assert degrees == [1, 1, 2, 2]


def test_dump_y_set_sorted(tmp_path):
    out = tmp_path / "ys.csv"
    rc = run_cli(["dump", "--kind", "y-set", "--n", "2", "--q", "2",
                  "--h", "3", "--s", "2", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["y0", "y1", "y2", "y3", "y4"]
    body = rows[1:]
    assert body == sorted(body, key=lambda r: tuple(int(v) for v in r))


def test_dump_size_limit(tmp_path, capsys):
    rc = run_cli(["dump", "--kind", "points", "--n", "2", "--q", "3",
                  "--h", "3", "--s", "2", "--max-size", "1000",
                  "--out", str(tmp_path / "big.csv")])
    assert rc == 1
    assert "SizeLimitExceeded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    [
        ["--kind", "points", "--max-size", "0"],
        ["--kind", "points", "--q", "6"],
        ["--kind", "points", "--s", "0"],
        ["--kind", "points", "--h", "4"],
        ["--kind", "char-table", "--max-size", "0"],
        ["--kind", "char-table", "--n", "3", "--q", "4"],
    ],
)
def test_dump_rejects_bad_input_before_any_output(bad, capsys):
    rc = run_cli(["dump", *bad])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "error:" in out.err


@pytest.mark.parametrize(
    "seed,digest",
    [
        (0, "f0e56d9b1ee33b0c83f2b357ced1060a09e811159f0e16dffcdbe5b28076b636"),
        (1, "d54623d2f9d918c4c9bc1a5f652d968de4c811c475b04da69d178b6e96ba24e2"),
    ],
)
def test_series_report_matches_golden_digest(seed, digest, capsys):
    # the digests of the scalar seed implementation's reports
    assert run_cli(["verify", "--suite", "series", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_series_zero_determinant_is_a_counted_failure(monkeypatch):
    from dllab import serieslab

    # a determinant that vanishes where the law predicts a valuation inside
    # the window fails the valuation claim; it is not a library error.  The
    # exact counts pin which samples the suite draws, which the reports'
    # instance and failure counts cannot tell apart.
    monkeypatch.setattr(serieslab, "mat_det_series", lambda A: A[0][0] - A[0][0])
    ap = cli._build_parser()
    for seed, failures in [(0, 14_065), (1, 14_049)]:
        argv = ["verify", "--suite", "series", "--seed", str(seed)]
        rep = cli.suite_series(cli._suite_args(ap, ap.parse_args(argv)))
        claim = next(c for c in rep["claims"] if c["claim"].startswith("determinant valuation"))
        assert claim["status"] == "fail"
        assert claim["witness"]["failures"] == failures
        # a vanishing determinant lies over F_q but is never recovered
        claim = next(c for c in rep["claims"] if c["claim"].startswith("pattern matrix"))
        assert claim["witness"] == {"instances": 200, "failures": 200}


@pytest.mark.parametrize("bad", [["--n", "2", "--h", "4"], ["--n", "4", "--h", "2"]])
def test_dump_y_set_rejects_unsupported_shape(bad, capsys):
    rc = run_cli(["dump", "--kind", "y-set", *bad])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "UnsupportedParametersError" in out.err


@pytest.mark.parametrize(
    "bad",
    [
        ["--kind", "points", "--q", "6"],
        ["--kind", "points", "--max-size", "0"],
        ["--kind", "y-set", "--h", "4"],
        ["--kind", "char-table", "--q", "6"],
    ],
)
def test_failing_dump_keeps_existing_out_file(bad, tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("keep me\n")
    assert run_cli(["dump", *bad, "--out", str(out)]) == 1
    assert out.read_text() == "keep me\n"


def _never_run(args):
    raise AssertionError("the suite ran")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "orbit", "--q", "2", "--out", "{missing}/x.json"],
        ["dump", "--kind", "points", "--out", "{missing}/x.csv"],
        ["verify", "--suite", "orbit", "--q", "2", "--out", "{tmp}"],
    ],
    ids=["verify-missing-dir", "dump-missing-dir", "verify-out-is-a-directory"],
)
def test_unwritable_out_is_a_usage_error_before_any_work(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli.SUITES, "orbit", (_never_run, *cli.SUITES["orbit"][1:]))
    monkeypatch.setitem(cli.DUMPS, "points", (_never_run, *cli.DUMPS["points"][1:]))
    argv = [a.format(missing=tmp_path / "missing-dir", tmp=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--out" in out.err and "Traceback" not in out.err
    assert list(tmp_path.iterdir()) == []


def test_failed_verify_write_keeps_existing_out_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.json"
    out.write_text("keep me\n")

    def refuse(src, dst):
        raise OSError("no room")

    monkeypatch.setattr(cli.os, "replace", refuse)
    assert run_cli(["verify", "--suite", "orbit", "--q", "2", "--out", str(out)]) == 1
    assert out.read_text() == "keep me\n"
    assert list(tmp_path.iterdir()) == [out]
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: OSError: no room"


def test_dump_failing_while_writing_keeps_existing_out_file(tmp_path, monkeypatch, capsys):
    def half_written(args):
        def write(fh):
            fh.write("a1,a2\n0,1\n")
            raise ValueError("stopped halfway")

        return write

    monkeypatch.setitem(cli.DUMPS, "points", (half_written, *cli.DUMPS["points"][1:]))
    out = tmp_path / "x.csv"
    out.write_text("keep me\n")
    assert run_cli(["dump", "--kind", "points", "--out", str(out)]) == 1
    assert out.read_text() == "keep me\n"
    assert list(tmp_path.iterdir()) == [out]
    assert capsys.readouterr().err == "error: ValueError: stopped halfway\n"


@pytest.mark.parametrize("flag", ["--n", "--q", "--M"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_rejects_non_positive_sizes(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "thm31", flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_has_no_h_option(capsys):
    # no verify suite reads a level; dump keeps its --h
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "orbit", "--q", "2", "--h", "7"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "eigenspaces", "--q", "2", "--jobs", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "thm31", "--M", "2"],
        ["--suite", "thm32", "--seed", "1"],
        ["--suite", "eigenspaces", "--n", "2"],
        ["--suite", "intertwiner", "--saturate"],
        ["--suite", "eta-level2", "--n", "2", "--q", "2", "--seed", "1"],
        ["--suite", "orbit", "--M", "1"],
        ["--suite", "matrix-y", "--q", "2"],
        ["--suite", "series", "--M", "2"],
        ["--suite", "maximality", "--seed", "0"],
        # options that used to be ignored, or accepted whatever their value
        ["--suite", "maximality", "--n", "9", "--q", "9"],
        ["--suite", "thm31", "--n", "2"],
        ["--suite", "trace", "--q", "2"],
        ["--suite", "orbit", "--jobs", "0"],
        ["--suite", "orbit", "--jobs", "-3"],
    ],
    ids=lambda argv: "-".join(a.strip("-") for a in argv[1:]),
)
def test_verify_rejects_options_the_suite_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _verify_argv_id(argv):
    return "-".join(a.strip("-") for a in argv[1:])


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "trace", "--max-size", "100"],
        ["--suite", "main-example", "--q", "2", "--max-size", "100"],
    ]
    + [["--suite", suite, "--max-size", "1"] for suite in sorted(cli.SUITES)],
    ids=_verify_argv_id,
)
def test_verify_accepts_max_size_for_every_suite(argv, monkeypatch, capsys):
    # every suite reads --max-size: a bound below the run's size is a
    # refusal report, not a usage error
    suite = argv[1]
    monkeypatch.setitem(cli.SUITES, suite, (_never_run, *cli.SUITES[suite][1:]))
    assert run_cli(["verify", *argv]) == 1
    [claim] = json.loads(capsys.readouterr().out)["claims"]
    assert claim["witness"]["error"].startswith("SizeLimitExceededError")


def _size(argv):
    """The size that the runner compares with --max-size for argv."""
    ap = cli._build_parser()
    args = ap.parse_args(argv)
    if args.command == "verify":
        return cli.SUITES[args.suite][2](cli._suite_args(ap, args))
    return cli.DUMPS[args.kind][2](cli._dump_args(ap, args))


def test_every_suite_and_dump_declares_a_size():
    for _, reads, size in [*cli.SUITES.values(), *cli.DUMPS.values()]:
        assert callable(size) and "max_size" not in reads


def _perfbench_invocations():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.json")
    with open(path) as fh:
        workloads = json.load(fh)["workloads"]
    for workload in workloads.values():
        for inv in workload["invocations"]:
            extra = ["--seed", str(inv["seed_offset"])] if "seed_offset" in inv else []
            yield inv["argv"] + extra


def test_default_runs_and_benchmark_invocations_fit_the_default_bound():
    runs = [["verify", "--suite", suite] for suite in cli.SUITES]
    runs += [["dump", "--kind", kind] for kind in cli.DUMPS]
    runs += list(_perfbench_invocations())
    assert len(runs) > len(cli.SUITES) + len(cli.DUMPS)
    assert cli.VERIFY_DEFAULTS["max_size"] == cli.DUMP_DEFAULTS["max_size"] == 2_000_000
    for argv in runs:
        assert _size(argv) <= 2_000_000, argv


# runs that enumerate far past the default bound, each refused before any work
PROBES = [
    ["--suite", "thm31", "--n", "3", "--q", "4"],
    ["--suite", "thm32", "--n", "3", "--q", "3"],
    ["--suite", "eta-level2", "--n", "3", "--q", "3"],
    ["--suite", "eta-level2", "--n", "2", "--q", "4"],
    ["--suite", "orbit", "--q", "9"],
    ["--suite", "main-example", "--q", "4"],
    ["--suite", "main-example", "--q", "2", "--M", "50"],
    ["--suite", "main-example", "--q", "5"],
]


@pytest.mark.parametrize("argv", PROBES, ids=_verify_argv_id)
def test_probes_are_refused_before_any_work(argv, monkeypatch, capsys):
    suite = argv[1]
    monkeypatch.setitem(cli.SUITES, suite, (_never_run, *cli.SUITES[suite][1:]))
    t0 = time.monotonic()
    assert run_cli(["verify", *argv]) == 1
    assert time.monotonic() - t0 < 2
    out = capsys.readouterr()
    [claim] = json.loads(out.out)["claims"]
    assert claim["status"] == "fail"
    assert claim["witness"]["error"].startswith("SizeLimitExceededError")
    assert "Traceback" not in out.err


@pytest.mark.parametrize("argv", PROBES, ids=_verify_argv_id)
def test_max_size_equal_to_the_size_admits_the_run(argv, monkeypatch, capsys):
    suite, reached = argv[1], []

    def body(args):
        reached.append(args.max_size)
        return {"suite": suite, "params": {}, "claims": [cli._claim("reached", True)]}

    size = _size(["verify", *argv])
    monkeypatch.setitem(cli.SUITES, suite, (body, *cli.SUITES[suite][1:]))
    assert run_cli(["verify", *argv, "--max-size", str(size)]) == 0
    assert reached == [size]
    assert run_cli(["verify", *argv, "--max-size", str(size - 1)]) == 1
    assert reached == [size]


def test_a_larger_max_size_admits_a_trace_run_beyond_the_default(capsys):
    # the scalar-fixed set at (2, 8) lies in a 4096^2 grid over F_(2^12),
    # past the default bound; only --max-size decides whether it runs
    argv = ["verify", "--suite", "trace", "--n", "2", "--q", "8"]
    assert run_cli(argv) == 1
    [claim] = json.loads(capsys.readouterr().out)["claims"]
    assert claim["witness"]["error"].startswith("SizeLimitExceededError")
    assert run_cli([*argv, "--max-size", str(4096**2)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [c["params"] for c in rep["claims"]] == [{"n": 2, "q": 8}, {"n": 2, "q": 2, "h": 3}]


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["verify", "--suite", "main-example", "--q", "2"],
         "65d3b5f0463849eba10a44b27c0b9ea85c151628d86649d55f553fef98e48e2b"),
        (["verify", "--suite", "thm31"],
         "d290f699b1dbdf0dd24b94121fb870a016a8fbaf9ce8e2ed68eded13986f609e"),
        (["verify", "--suite", "thm32"],
         "ffd0e6affe60722a99ce337172c2509239ceb82b40bb53ed9fbd63a280637c9e"),
        (["verify", "--suite", "orbit"],
         "a6d1427fb3e3de03a044e79ee8d36dc5b30d5414b7081f2a60f6d1fe95de450d"),
        (["verify", "--suite", "eta-level2", "--n", "2", "--q", "2"],
         "be18eba79dcaee52ef0a0be22f3338a2f9de61ec73f2949939a572f94a3b9404"),
        (["verify", "--suite", "eta-level2", "--n", "2", "--q", "3"],
         "64f20bcc85bd86215c1b9a803a092e9f590b73a979551d2b0528c5b8d7ed1a0e"),
        (["dump", "--kind", "char-table", "--n", "3", "--q", "2"],
         "f62a8c7226b8c20e8860e6849bc325cf93ed615fe660c3dd9bfd6595d6b96296"),
        (["verify", "--suite", "intertwiner", "--q", "2"],
         "2fdf9cba4d8c48def8ede7c784c9424f74b49189d9c78591bb10f1b65810e7b4"),
        (["verify", "--suite", "trace"],
         "8f3a8517005d032f07cf8c1411bee36d0a7412127e7084f8c85f08e75e304886"),
        (["verify", "--suite", "eigenspaces", "--q", "2"],
         "cfae799ce7d95558027df1a46c75f16c7f8cda5a48618f2d5b350e2aeed00479"),
        (["dump", "--kind", "y-set", "--n", "2", "--q", "2", "--h", "3", "--s", "2"],
         "9f6bfec2547f016748223a0a7be41e4768341b47b60ca653dd71ee2d138ba157"),
        (["dump", "--kind", "y-set", "--n", "2", "--q", "2", "--h", "2", "--s", "3"],
         "88af9d3cbbc6c92307f6dac062eb6969e197b63331ded5bc44d5d4214dc4f569"),
        (["dump", "--kind", "y-set", "--n", "3", "--q", "2", "--h", "2", "--s", "2"],
         "b1e6f0be7241a73f624d99b7c142500cef7a6d8646fe7998cad79d0c2438f82a"),
        (["verify", "--suite", "matrix-y"],
         "521711257e88c9ccecfb196d2b0c1fa3813617889e2d64e27f59fadc65472bbe"),
        (["verify", "--suite", "intertwiner"],
         "8778d3a816626391f9f2e2b77f2edfdad7f07c2caab17d0c9651cc1703d11cc2"),
        (["verify", "--suite", "eta-level2"],
         "b25630648b9d43ef1149cebfc341f2fd9cc373ab77570bacf5f6615a1d6915bf"),
        (["verify", "--suite", "maximality"],
         "cd5011c91df1b0bcb11f9a0b2988ec420da21d15baf5c8bd1780b9cda0c3dc0f"),
        (["verify", "--suite", "eigenspaces"],
         "d91b27bae3a34b466f5895c2ecd4b6f01a6137152b30766baea90bf571f9e0d9"),
        (["verify", "--suite", "main-example"],
         "042c3b886b3ea907abbb4a4ce89811d280d9e731ad45a62cfc4c7f56dc2ad4ae"),
        (["verify", "--suite", "main-example", "--q", "2", "--M", "2"],
         "04bdb45a797c2236f44179c48f74dadebad612ea2613da31c4b5e68fde13bff3"),
        (["verify", "--suite", "main-example", "--q", "2", "--M", "3"],
         "dbc2b7a6a2db04e6212902eb29f51a3dd131670be6e2e55fcb95eca74273d839"),
        (["verify", "--suite", "eta-level2", "--n", "2", "--q", "2", "--M", "2"],
         "398920d4411ae90881b3959642746eefe6b9dd3d038b88d1658b561c531e7119"),
        (["verify", "--suite", "eta-level2", "--n", "3", "--q", "2"],
         "40130033fecf415a905912c966c511259244abc9f64117665c80503fac5ab698"),
        (["dump", "--kind", "char-table", "--n", "2", "--q", "3"],
         "cf8f4eae9c114cce91d85f1b4b34e86c8856d7cf4b0c252d2a8ea4a12a1b0749"),
        (["dump", "--kind", "points", "--n", "2", "--q", "2", "--h", "3", "--s", "2"],
         "c9e8d984388c3bec380c140ecf871148f9b8c556d2778763d32666d9d9eb4864"),
        (["dump", "--kind", "points", "--n", "3", "--q", "3", "--h", "2", "--s", "1"],
         "a0ba70e41f8ecb34b54bc548b2fc49007a1128c7b824b77742e5ed89766b6681"),
        (["dump", "--kind", "points", "--n", "2", "--q", "3", "--h", "3", "--s", "1"],
         "61e6c52351fb0cf23f035972cbd157c562a6de200428ed43d94fb9da306656af"),
    ],
    ids=["main-example-q2", "thm31", "thm32", "orbit", "eta-level2-n2q2", "eta-level2-n2q3",
         "char-table-n3q2", "intertwiner-q2", "trace", "eigenspaces-q2", "y-set-n2q2h3s2",
         "y-set-n2q2h2s3", "y-set-n3q2h2s2",
         "matrix-y", "intertwiner", "eta-level2", "maximality", "eigenspaces", "main-example",
         "main-example-q2M2", "main-example-q2M3", "eta-level2-n2q2M2", "eta-level2-n3q2",
         "char-table-n2q3", "points-n2q2h3s2", "points-n3q3h2s1", "points-n2q3h3s1"],
)
def test_groups_reports_match_golden_digest(argv, digest, capsys):
    # the digests of the seed implementation's reports
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _stub_orbit(monkeypatch):
    from dllab.charlib import AddChar

    # every layer character reads as conductor q: the conductor-q^2 ones
    # then contradict their transitive orbits
    monkeypatch.setattr(AddChar, "conductor_power", lambda self: 1)


def _stub_eta(monkeypatch):
    from dllab import constructions

    # every Mackey inner product reads 1: regular thetas look reducible
    monkeypatch.setattr(constructions, "assert_nonneg_integer", lambda val: 1)


def _stub_main_example(monkeypatch):
    from dllab import constructions

    monkeypatch.setattr(constructions, "_mackey_linear", lambda *args: False)


@pytest.mark.parametrize(
    "argv,stub,failing",
    [
        (["--suite", "orbit", "--q", "2"], _stub_orbit,
         {"orbit on extensions transitive iff conductor q^2": "mismatches"}),
        (["--suite", "eta-level2", "--n", "2", "--q", "2"], _stub_eta,
         {"Mackey irreducibility iff theta regular": "mismatches",
          "full conductor q^n implies irreducible": "reducible"}),
        (["--suite", "main-example", "--q", "2"], _stub_main_example,
         {"extension route equals theta'-induction (pi-squared reading)": "mismatches"}),
    ],
    ids=["orbit", "eta-level2", "main-example"],
)
def test_construction_mismatch_is_a_failing_claim(argv, stub, failing, monkeypatch, capsys):
    stub(monkeypatch)
    assert run_cli(["verify", *argv]) == 1
    rep = json.loads(capsys.readouterr().out)
    statuses = {c["claim"]: c for c in rep["claims"]}
    for name, key in failing.items():
        assert statuses[name]["status"] == "fail"
        assert statuses[name]["witness"][key]


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "char-table", "--h", "3"],
        ["--kind", "char-table", "--s", "5"],
        ["--kind", "char-table", "--h", "3", "--s", "5"],
    ],
    ids=["char-table-h", "char-table-s", "char-table-h-s"],
)
def test_dump_rejects_options_the_kind_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["dump", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "points", "--n", "2", "--q", "2", "--h", "2", "--s", "1", "--max-size", "100"],
        ["--kind", "y-set", "--n", "2", "--q", "2", "--h", "2", "--s", "1", "--max-size", "100"],
        ["--kind", "char-table", "--n", "2", "--q", "2", "--max-size", "100"],
    ],
    ids=["points", "y-set", "char-table"],
)
def test_dump_accepts_every_option_the_kind_reads(argv, capsys):
    assert run_cli(["dump", *argv]) == 0
    assert capsys.readouterr().out


def test_norm_homomorphism_failure_names_the_first_failing_pair(monkeypatch, capsys):
    # the top coordinate as the "norm": additive except for the twisted term
    # a_1 b_1^q, so the first failure in row-major order is x = y = (1, 0).
    # constructions binds its own nm_gnq_batch at import: load it before the
    # patch, so that only the norm check reads the stub
    from dllab import constructions, matmodel  # noqa: F401

    monkeypatch.setattr(matmodel, "nm_gnq_batch", lambda n, q, F, a: a[n - 1])
    assert run_cli(["verify", "--suite", "thm32", "--n", "2", "--q", "2"]) == 1
    rep = json.loads(capsys.readouterr().out)
    claim = next(c for c in rep["claims"] if c["claim"].startswith("norm map"))
    assert claim["status"] == "fail"
    assert claim["witness"] == {
        "pairs": 256,
        "first_failure": {"x": [1, 0], "y": [1, 0], "nm(xy)": 1, "nm(x) + nm(y)": 0},
    }


def test_closed_stdout_exits_one_without_traceback():
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dllab.cli", "dump", "--kind", "char-table"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the first row is written
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize(
    "argv,tag",
    [
        (["--suite", "thm31", "--n", "2", "--q", "2"], "[thm31]"),
        (["--suite", "trace", "--n", "2", "--q", "2"], "[trace]"),
        (["--suite", "orbit", "--q", "2"], "[orbit]"),
        (["--suite", "maximality"], "[maximality]"),
        (["--suite", "series"], "[series]"),
    ],
    ids=["thm31", "trace", "orbit", "maximality", "series"],
)
def test_suites_report_progress_on_stderr(argv, tag, capsys):
    assert run_cli(["verify", *argv]) == 0
    err = capsys.readouterr().err
    assert err.startswith(tag)


def test_series_round_trip_has_its_own_progress_line(capsys):
    assert run_cli(["verify", "--suite", "series"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[-2:] == [
        "[series] exhaustive valuation grid (4096 pairs)",
        "[series] pattern-matrix round trip (200 instances)",
    ]


_FOOTPRINT = """
import contextlib, io, json, sys
import dllab.cli
argv = json.loads(sys.argv[1])
status = 0
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        status = dllab.cli.main(argv)
print(json.dumps([status, sorted(m for m in sys.modules if m.startswith("dllab."))]))
"""


@pytest.mark.parametrize(
    "argv,layers",
    [
        ([], {"errors", "ffield"}),
        (["dump", "--kind", "points", "--n", "2", "--q", "2", "--h", "2"],
         {"errors", "ffield", "twistring", "matmodel"}),
        (["dump", "--kind", "y-set"], {"errors", "ffield", "twistring", "matmodel"}),
        (["verify", "--suite", "series"], {"errors", "ffield", "serieslab"}),
        # the rho families read the point count from matmodel, not counting
        (["verify", "--suite", "thm31", "--n", "2", "--q", "2"],
         {"errors", "ffield", "twistring", "matmodel", "cyclo", "repkit", "charlib",
          "constructions"}),
        (["verify", "--suite", "orbit", "--q", "2"],
         {"errors", "ffield", "twistring", "cyclo", "repkit", "charlib", "constructions"}),
        # the surface sums need neither matrices nor groups; the eigenspaces
        # read the unit characters, which need groups but no matrices
        (["verify", "--suite", "intertwiner", "--q", "2"],
         {"errors", "ffield", "twistring", "cyclo", "charlib", "counting"}),
        (["verify", "--suite", "eigenspaces", "--q", "2"],
         {"errors", "ffield", "twistring", "cyclo", "repkit", "charlib", "counting"}),
    ],
    ids=["import", "points", "y-set", "series", "thm31", "orbit", "intertwiner", "eigenspaces"],
)
def test_commands_import_only_the_layers_they_run(argv, layers):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, json.dumps(argv)],
        capture_output=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    status, modules = json.loads(proc.stdout)
    assert status == 0
    assert modules == sorted(f"dllab.{m}" for m in layers | {"cli"})


# -- every command line ends in a report, a table or a usage error -------------

# values that are valid, out of range, malformed, empty or huge; half the
# draws are small valid values, so that runs get admitted too
HOSTILE = ["0", "-1", "1", "2", "3", "4", "5", "6", "7", "9", "2.5", "x", "", " 2", "1" * 20]
VALUES = st.one_of(st.sampled_from(["1", "2", "3"]), st.sampled_from(HOSTILE))
FLAGS = ["--n", "--q", "--M", "--h", "--s", "--seed", "--jobs"]


@st.composite
def command_lines(draw):
    """verify or dump with any suite or kind (or none known), options drawn
    mostly from the ones it reads, with hostile values, and --max-size at
    most 200,000, so that every admitted run is small."""
    if draw(st.booleans()):
        name = draw(st.sampled_from([*sorted(cli.SUITES), "nope"]))
        argv, reads = ["verify", "--suite", name], cli.SUITES.get(name, (0, set()))[1]
    else:
        name = draw(st.sampled_from([*sorted(cli.DUMPS), "nope"]))
        argv, reads = ["dump", "--kind", name], cli.DUMPS.get(name, (0, set()))[1]
    own = [f"--{o}" for o in sorted(reads) if o != "saturate"]
    flags = draw(st.sampled_from([own, own, FLAGS])) or FLAGS
    chosen = draw(st.lists(st.sampled_from(flags), unique=True, max_size=4))
    if "--n" in chosen and "--q" not in chosen and "--q" in own:
        chosen.append("--q")  # suites read --n only with --q
    for flag in chosen:
        argv += [flag, draw(VALUES)]
    if draw(st.sampled_from([False, False, False, True])):
        argv.append("--saturate")
    return argv + ["--max-size", str(draw(st.one_of(st.just(200_000), st.integers(-1, 200_000))))]


@settings(max_examples=150, deadline=None)
@given(argv=command_lines())
def test_every_command_line_ends_in_a_report_or_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if status == 2:
        assert out.getvalue() == ""
    elif argv[0] == "verify":
        claims = json.loads(out.getvalue())["claims"]
        assert (status == 0) == all(c["status"] == "pass" for c in claims)
