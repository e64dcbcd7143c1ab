"""Command-line interface: records, formats, cache, config, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import sumfree

from sumfree import BudgetError, cli, enumeration, p_star, verify
from sumfree.cli import main

RECORD_FIELDS = {"schema_version", "op", "params", "result", "elapsed_ms", "version", "timestamp"}


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_count_table_single_row(capsys):
    code, out, _ = run(["count", "--n", "20", "--m", "7", "--format", "table"], capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 2  # header plus one row
    assert "735" in lines[1]


def test_partitions_record(capsys):
    code, out, _ = run(["partitions", "--k", "8", "--ell", "3"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == RECORD_FIELDS
    assert rec["result"]["p_star"] == 2
    assert rec["op"] == "partitions"


def test_partitions_unrestricted(capsys):
    code, out, _ = run(["partitions", "--k", "10"], capsys)
    assert json.loads(out)["result"]["p"] == 42


def test_result_payload_deterministic(capsys):
    _, out1, _ = run(["count", "--n", "14"], capsys)
    _, out2, _ = run(["count", "--n", "14"], capsys)
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["result"] == r2["result"]
    assert r1["params"] == r2["params"]


def test_invalid_usage_exits_2(capsys):
    code, _, _ = run(["count"], capsys)  # missing --n
    assert code == 2
    code, _, _ = run(["not-a-command"], capsys)
    assert code == 2
    for delta in ("1", "1/0", "-1/4", "abc"):
        code, out, err = run(["bset", "--s", "1,2", f"--delta={delta}"], capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1), (delta, err)
    for argv in (
        "window --n 10 --a 1 --m 20",
        "restricted --k 10",
        "janson --family 1,2 --ground 0 --draw 0",
        "janson --family 1,2,3 --ground 2 --draw 2",
        "bounds --name CEthm --n 10 --m 0 --bigc 1",
        "smallsumset --n 10 --m 3 --cap 12 --delta nan",
        "smallsumset --n 10 --m 3 --cap 12 --delta inf",
        "constant --n 0 --m 1 --count 5",
        "constant --n 10 --m 20 --count 5",
        "constant --n 10 --m -1 --count 5",
        "trend --n-list 12 --m-rule div:0",
        "trend --n-list 0",
        "sample --n 10 --m 3 --count -5",
        "count --n -1",
        "strata --n -1 --m 1",
        "pairgraph --n 10 --s 1 --excluded 100",
    ):
        code, out, err = run(argv.split(), capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1), (argv, err)


def test_budget_exit_3(capsys):
    code, _, err = run(
        ["restricted", "--k", "200", "--ell", "10", "--sumset-cap", "25", "--budget", "10"], capsys
    )
    assert code == 3
    assert "budget" in err
    for argv in (["strata", "--n", "20", "--m", "5"], ["window", "--n", "30", "--a", "3", "--m", "5"]):
        code, _, err = run(argv + ["--budget", "100"], capsys)
        assert code == 3 and "budget" in err
    # far beyond the default budget: refused before the search, not by the interpreter's recursion limit
    for argv in (["count", "--n", "3000"], ["strata", "--n", "3000", "--m", "4"],
                 ["smallsumset", "--n", "3000", "--m", "2000", "--cap", "100000000"],
                 ["partitions", "--k", "100000000"], ["partitions", "--k", "100000000", "--ell", "1000"]):
        code, out, err = run(argv, capsys)
        assert (code, out, err.count("\n")) == (3, "", 1) and err.startswith("budget error:"), (argv, err)


def test_ratio_table_keeps_its_budget(capsys):
    # --ratio-table ignored --budget and printed the whole table
    code, out, err = run(["restricted", "--k", "30", "--ratio-table", "--budget", "1"], capsys)
    assert (code, out, err.count("\n")) == (3, "", 1) and err.startswith("budget error:"), err
    candidates = sum(p_star(k, ell) for ell in range(1, 13) for k in range(31))
    assert len(verify.restricted_ratio_table(30, 12, budget=candidates)) == 6 * 133
    with pytest.raises(BudgetError):
        verify.restricted_ratio_table(30, 12, budget=candidates - 1)


def test_ratio_table_reads_ell_zero_and_refuses_negatives(capsys):
    # --ell 0 built the whole ell <= 12 table, and a negative --k or --ell printed an empty one
    code, out, _ = run(["restricted", "--k", "4", "--ell", "0", "--ratio-table"], capsys)
    rec = json.loads(out)
    assert (code, rec["params"]["ellmax"], rec["result"]) == (0, 0, [])
    for argv in ("--k -1", "--k 4 --ell -1"):
        code, out, err = run(["restricted", "--ratio-table", *argv.split()], capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1), (argv, err)
    with pytest.raises(ValueError):
        verify.restricted_ratio_table(4, -1)


def test_resource_errors_exit_3(capsys, monkeypatch):
    # a query past the interpreter's stack or memory that no budget foresaw ended in a traceback and exit 1
    for error in (RecursionError("maximum recursion depth exceeded"), MemoryError()):

        def call(**_params):
            raise error

        monkeypatch.setitem(cli.COMMANDS, "count", cli.COMMANDS["count"]._replace(call=call))
        code, out, err = run(["count", "--n", "10"], capsys)
        assert (code, out, err.count("\n")) == (3, "", 1), err
        assert err.startswith(f"resource error: {type(error).__name__}") and "Traceback" not in err, err


def test_budget_zero_refuses(capsys):
    for argv in (["count", "--n", "10"], ["strata", "--n", "10", "--m", "3"], ["enumerate", "--n", "10"]):
        code, out, err = run(argv + ["--budget", "0"], capsys)
        assert (code, out) == (3, "") and "budget" in err, argv


def test_cache_replay_byte_identical(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["count", "--n", "16", "--m", "5", "--cache", cache]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second  # including timestamp and elapsed of the original run
    _, other, _ = run(["count", "--n", "16", "--m", "6", "--cache", cache], capsys)
    assert json.loads(other)["result"] != json.loads(first)["result"]


def test_cache_hit_runs_no_query(tmp_path, capsys, monkeypatch):
    args = ["count", "--n", "16", "--cache", str(tmp_path)]
    _, first, _ = run(args, capsys)

    def refuse(*args, **kwargs):
        raise AssertionError("library called on a cache hit")

    monkeypatch.setattr(enumeration, "count_sum_free", refuse)
    code, second, _ = run(args, capsys)
    assert code == 0 and second == first
    monkeypatch.undo()
    cfg = tmp_path / "sumfree.cfg"
    cfg.write_text("budget = 1\n")
    for more in (["--budget", "1"], ["--config", str(cfg)]):  # the budget is in the key: no hit, and refused
        code, third, err = run(args + more, capsys)
        assert (code, third) == (3, "") and "budget" in err, more


def test_cache_key_includes_format(tmp_path, capsys):
    args = ["partitions", "--k", "10", "--cache", str(tmp_path)]
    _, csv_out, _ = run(args + ["--format", "csv"], capsys)
    _, records_out, _ = run(args + ["--format", "records"], capsys)
    assert csv_out.splitlines() == ["p", "42"]
    assert json.loads(records_out)["result"] == {"p": 42}
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sumfree.cfg"
    cfg.write_text("# comment\nformat = table\nseed = 3\n")
    code, out, _ = run(["count", "--n", "10", "--config", str(cfg)], capsys)
    assert code == 0
    assert not out.lstrip().startswith("{")  # table, not a record
    code, out, _ = run(["count", "--n", "10", "--config", str(cfg), "--format", "records"], capsys)
    assert out.lstrip().startswith("{")  # flag wins
    # a value is checked like its flag: format = xml once printed a table and keyed the cache on "xml"
    cache = tmp_path / "cache"
    for bad in ("colour = red\n", "seed = many\n", "no equals sign\n", "format = xml\n"):
        cfg.write_text(bad)
        code, out, err = run(["count", "--n", "10", "--config", str(cfg), "--cache", str(cache)], capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1) and "error" in err, (bad, err)
    assert not cache.exists()


READERS = {"--seed": {"sample"}, "--budget": {"count", "enumerate", "strata", "window", "partitions", "restricted",
                                               "smallsumset", "sample", "trend"}}


def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys):
    # every subcommand took --seed and --budget, and verify --format, --cache and --config, and ignored them
    cfg = tmp_path / "sumfree.cfg"
    cfg.write_text("format = csv\n")
    flags = {"--seed": "1", "--budget": "10000", "--format": "csv", "--cache": str(tmp_path / "c"), "--config": str(cfg)}
    refused = accepted = 0
    for name, command in cli.COMMANDS.items():
        base = [name] + [f"{spec[0]}={_small(spec)}" for spec in command.args if spec[3:4] == (True,)]
        for flag, value in flags.items():
            code, out, err = run(base + [flag, value], capsys)
            if name != "verify" and name in READERS.get(flag, cli.COMMANDS):
                accepted += 1
                assert "unrecognized arguments" not in err, (name, flag, err)
            else:
                refused += 1
                assert (code, out, len(err.splitlines())) == (2, "", 1) and "unrecognized arguments" in err, (name, flag)
    assert (refused, accepted) == (29, 61)  # of the 30 ignored, partitions now reads --budget
    # seed and budget set in a config file still reach the commands that read them
    cfg.write_text("seed = 77\nbudget = 0\n")
    code, out, err = run(["count", "--n", "10", "--config", str(cfg)], capsys)
    assert (code, out) == (3, "") and err.startswith("budget error:"), err
    argv = ["sample", "--n", "12", "--m", "3", "--count", "20"]
    cfg.write_text("seed = 77\n")
    _, from_config, _ = run(argv + ["--config", str(cfg)], capsys)
    _, from_flag, _ = run(argv + ["--seed", "77"], capsys)
    rec, expected = json.loads(from_config), json.loads(from_flag)
    assert (rec["params"], rec["result"]) == (expected["params"], expected["result"]) and rec["params"]["seed"] == 77


def test_threads_flag_and_config_key_are_gone(tmp_path, capsys):
    argv = ["sample", "--n", "12", "--m", "3", "--count", "5"]
    code, out, _ = run(argv + ["--threads", "2"], capsys)
    assert (code, out) == (2, "")
    cfg = tmp_path / "sumfree.cfg"
    cfg.write_text("threads = 1\n")
    code, out, err = run(argv + ["--config", str(cfg)], capsys)
    assert (code, out) == (2, "") and "error" in err


def test_unusable_cache_exits_2_before_the_query(tmp_path, capsys, monkeypatch):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")

    def refuse(*args, **kwargs):
        raise AssertionError("query ran with an unusable cache")

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "count_sum_free", refuse)
        for cache in (not_a_dir, not_a_dir / "x"):
            code, out, err = run(["count", "--n", "4", "--cache", str(cache)], capsys)
            assert (code, out, len(err.splitlines())) == (2, "", 1), (cache, err)
            assert err.startswith("error: ")

    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.tempfile, "mkstemp", no_space)  # the cache entry cannot be written
    code, out, err = run(["count", "--n", "4", "--cache", str(tmp_path / "cache")], capsys)
    assert (code, out, len(err.splitlines())) == (2, "", 1), err


def test_sample_embeds_seed(capsys):
    code, out, _ = run(["sample", "--n", "12", "--m", "3", "--count", "40", "--seed", "77"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["params"]["seed"] == 77
    assert sum(rec["result"]["histogram"].values()) == 40


def test_empty_universe_counts_only_the_empty_set(capsys):
    expected = enumeration.count_sum_free(10, universe=[]).by_size
    assert expected == {0: 1}
    for universe in ("", "10:5"):
        code, out, _ = run(["count", "--n", "10", f"--universe={universe}"], capsys)
        rec = json.loads(out)
        assert code == 0
        assert rec["params"]["universe"] == universe
        assert rec["result"]["by_size"] == {str(m): c for m, c in expected.items()}


def test_enumerate_and_strata_and_window(capsys):
    code, out, _ = run(["enumerate", "--n", "4", "--m", "2"], capsys)
    rec = json.loads(out)
    assert rec["result"]["sets"] == [[1, 3], [1, 4], [2, 3], [3, 4]]
    code, out, _ = run(["strata", "--n", "10", "--m", "5"], capsys)
    rows = json.loads(out)["result"]
    assert {"ell": 0, "k": "0", "count": 1, "odd_only": 0} in rows
    code, out, _ = run(["window", "--n", "10", "--a", "0", "--m", "3"], capsys)
    assert json.loads(out)["result"]["count"] == 16


def test_sumset_freiman_bset_janson(capsys):
    _, out, _ = run(["sumset", "--a", "1,2,3"], capsys)
    assert json.loads(out)["result"]["sumset"] == [2, 3, 4, 5, 6]
    _, out, _ = run(["freiman", "--s", "1,2,3,10"], capsys)
    assert json.loads(out)["result"]["applicable"] is False
    _, out, _ = run(["bset", "--s", "1,2,3", "--delta", "0"], capsys)
    assert json.loads(out)["result"]["members"] == [1, 2, 3]
    _, out, _ = run(
        ["janson", "--family", "1,2|2,3", "--ground", "6", "--draw", "3"], capsys
    )
    assert json.loads(out)["result"]["mu"] == pytest.approx(0.5)


def test_bounds_and_inequalities_and_constant(capsys):
    _, out, _ = run(["bounds", "--name", "parts", "--k", "8", "--ell", "3", "--count", "2"], capsys)
    rec = json.loads(out)
    assert rec["result"]["count_leq_rhs"] is True
    _, out, _ = run(
        ["inequalities", "--kind", "binom", "--a", "10", "--b", "4", "--c", "2"], capsys
    )
    assert all(row["passed"] for row in json.loads(out)["result"])
    _, out, _ = run(["inequalities", "--kind", "gamma", "--a", "1", "--gamma-b", "1.0"], capsys)
    assert json.loads(out)["result"]["passed"] is True
    _, out, _ = run(["constant", "--n", "4", "--m", "2", "--count", "4"], capsys)
    assert json.loads(out)["result"]["c_star"] == pytest.approx(1.0)


def test_bounds_name_the_missing_parameter(capsys):
    for argv, missing in (("--m 3 --bigc 1", "n"), ("--n 10 --bigc 1", "m"), ("--n 10", "m, C")):
        code, out, err = run(["bounds", "--name", "CEthm", *argv.split()], capsys)
        assert (code, out, err) == (2, "", f"error: CEthm needs n, m, C; missing {missing}\n"), argv


def test_bounds_name_the_parameter_out_of_range(capsys):
    code, out, err = run(["bounds", "--name", "parts", "--k", "-1", "--ell", "2"], capsys)
    assert (code, out, err) == (2, "", "error: parts needs k >= 0, not -1\n")


def test_gamma_b_it_cannot_sum_exits_2(capsys):
    # each of these looped forever: no term fell below 1e-15 of the sum
    for b in ("nan", "inf", "1e-300"):
        code, out, err = run(["inequalities", "--kind", "gamma", "--a", "1", "--gamma-b", b], capsys)
        assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith("error:"), (b, err)


def test_gamma_sum_past_the_float_range_exits_2(capsys):
    code, out, err = run(["inequalities", "--kind", "gamma", "--a", "1000", "--gamma-b", "1"], capsys)
    assert (code, out) == (2, "") and err == "error: a = 1000, b = 1.0: the sum is about e^5912.13, past the float range\n"


def test_values_past_the_float_range_exit_2(capsys):
    # each of these ended in an OverflowError traceback and exit 1, the code of a failed verification
    huge = "9" * 400
    for argv in (f"inequalities --kind binom --a {huge} --b 3 --c 1",
                 f"inequalities --kind gamma --a {huge} --gamma-b 1",
                 f"bounds --name CEthm --n {huge} --m 3 --bigc 1",
                 f"bounds --name parts --k 10 --ell {huge}",
                 "bounds --name conj --cap 1e308 --m 3 --delta 1",
                 f"constant --n {huge} --m 3 --count 5"):
        code, out, err = run(argv.split(), capsys)
        assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith("error:"), (argv[:40], err)


def test_trend_budget_reaches_strata_and_samples(capsys):
    for n_list in ("20", "30"):  # both read the strata, on either side of the old sampling limit n = 26
        code, out, err = run(["trend", "--n-list", n_list, "--budget", "1"], capsys)
        assert (code, out, err) == (3, "", "budget error: search node budget exceeded (1)\n"), n_list


def test_trend_csv(capsys):
    code, out, _ = run(
        ["trend", "--n-list", "12,16", "--m-rule", "sqrt", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header plus two rows
    assert "ell_scaled" in lines[0]


def test_verify_small_suite(capsys, monkeypatch):
    code, out, _ = run(["verify", "--suite", "small"], capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert len(lines) == 12
    assert all(line.startswith("[PASS]") for line in lines)

    monkeypatch.setattr(verify, "ALL_CHECKS", [])
    verify.criterion("0", "planted failure")(lambda scale: (False, f"scale {scale}"))
    code, out, _ = run(["verify", "--suite", "small"], capsys)
    assert code == 1
    assert out == "[FAIL] criterion  0: planted failure (0.0s) - scale small\n"

    # a check that passes but overruns its time bound fails the gate, as it fails tier-1
    monkeypatch.setattr(verify, "ALL_CHECKS", [])
    verify.criterion("0", "planted slow", seconds=0)(lambda scale: (True, "ok"))
    code, out, _ = run(["verify", "--suite", "small"], capsys)
    assert code == 1
    assert out == "[FAIL] criterion  0: planted slow (0.0s) - ok; over its 0 s bound\n"


def test_cli_import_loads_no_process_pool():
    # the search runs in one process; the pool modules only cost start-up time
    pool = "{'multiprocessing', 'concurrent.futures.process'}"
    code = f"import sys, sumfree.cli; print(sorted({pool} & set(sys.modules)))"
    env = {"PYTHONPATH": str(Path(sumfree.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_smallsumset_budget_holds_on_large_n():
    # the search scanned every v up to n, counting only the ones that fit the cap toward the budget
    env = {"PYTHONPATH": str(Path(sumfree.__file__).resolve().parents[1])}
    for argv, code in (("--m 2 --cap 2", 3), ("--m 3 --cap 0", 0), ("--m 1 --cap 5", 3)):
        cmd = [sys.executable, "-m", "sumfree.cli", "smallsumset", "--n", "1000000000", "--budget", "10", *argv.split()]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == code, (argv, proc.stderr)


SMALL = {"--n": "8", "--ground": "4", "--count": "5", "--n-list": "8,10", "--family": "1,2|2,3", "--delta": "1/4"}


def _small(spec):
    """A small valid value of a required argument: from SMALL, else the first choice, 2 or the list 1,2."""
    flag, kind = spec[:2]
    return SMALL.get(flag) or (kind[0] if isinstance(kind, tuple) else "2" if kind is int else "1,2")


def test_boundary_values_exit_cleanly(capsys):
    # every argument of every subcommand in turn at a boundary value, the required others small and valid
    for name, command in cli.COMMANDS.items():
        specs = [spec for spec in command.args if spec[1] is not bool]
        if command.budget:
            specs.append(("--budget", int))
        budget = {"--budget": "10000"} if command.budget else {}  # only where the command reads it
        base = {spec[0]: _small(spec) for spec in specs if spec[3:4] == (True,)}
        for spec in specs:
            lists = spec[1] in (cli._parse_values, cli._parse_family)
            for value in ("-1", "0", "", "nan") + (("1:0",) if lists else ()):
                args = {**base, **budget, spec[0]: value}
                argv = [name] + [f"{flag}={v}" for flag, v in args.items()]
                code, _, err = run(argv, capsys)
                assert code in (0, 2, 3) and len(err.splitlines()) <= 1, (argv, code, err)
