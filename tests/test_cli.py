"""CLI exit codes for malformed flags and environment, unreadable files,
malformed instance files, over-limit exact enumeration and a missed bound,
the scores that `inspect --scores` prints, the instance file round trip,
what importing the CLI loads, and `python -m subpb`."""

import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpb import cli, core, experiment
from subpb.elicitation import Method, ranking_profile
from subpb.experiment import Dyadic, Fixed, GeneratorSpec, UniformRational, generate_raw
from subpb.partition import build_partition, harmonic_scores


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    argv = ["gen", "--family", "additive", "--m", "4", "--n", "3", "--out", str(path)]
    assert cli.main(argv) == cli.EXIT_OK
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    # The knapsack is exact, so there is no solver to choose.
    ["--solver", "dp"],
    ["--mode", "mc", "--samples", "1"],
    # Past the documented ceiling of 2**31 - 1 samples.
    ["--mode", "mc", "--samples", str(2**31)],
    # A mix whose denominator the CSV could not print in 4,300 digits.
    ["--mix", "1e-5000"],
])
def test_bad_eval_flags_are_usage_errors(instance_file, capsys, flags):
    code, err = run(["eval", "--instance", instance_file, "--method", "threshold", *flags],
                    capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--mix", "2"],
    ["--solver", "dp"],
    ["--mode", "mc", "--samples", "1"],
    ["--mode", "mc", "--samples", str(2**31)],
    ["--mix", "1e-5000"],
])
def test_bad_eval_flags_fail_before_the_file_is_read(tmp_path, capsys, flags):
    argv = ["eval", "--instance", str(tmp_path / "missing.json"), "--method", "threshold",
            *flags]
    code, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("model", ["uniform:x", "uniform:0", "dyadic:-1", "fixed:1/2,1/4",
                                   "fixed:1/2,2,1/3", "fixed:0,1/2,1/3",
                                   # A cost the file could not print in 4,300 digits.
                                   "fixed:1e-5000,1/2,1/3",
                                   # Exponents whose costs may not print either:
                                   # 2**14285 has 4,301 digits.
                                   "dyadic:14285", "dyadic:20000",
                                   pytest.param(f"dyadic:{'9' * 300}", id="dyadic:9*300"),
                                   "fixed", "lognormal"])
def test_bad_cost_models_are_usage_errors(tmp_path, capsys, model):
    out = tmp_path / "x.json"
    argv = ["gen", "--family", "additive", "--m", "3", "--n", "2",
            "--cost-model", model, "--out", str(out)]
    code, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


def test_dyadic_exponent_at_the_digit_limit_is_accepted(tmp_path, capsys):
    # 2**14284 has 4,300 digits, so every drawn cost still prints.
    out = tmp_path / "x.json"
    argv = ["gen", "--family", "additive", "--m", "3", "--n", "1",
            "--cost-model", "dyadic:14284", "--out", str(out)]
    code, _ = run(argv, capsys)
    assert code == cli.EXIT_OK
    assert cli.parse_instance_file(out.read_text(encoding="utf-8")).costs


@pytest.mark.parametrize("command", ["gen", "eval"])
def test_non_integer_seed_variable_is_usage_error(instance_file, tmp_path, capsys,
                                                  monkeypatch, command):
    argv = {
        "gen": ["gen", "--family", "additive", "--m", "3", "--n", "2",
                "--out", str(tmp_path / "x.json")],
        "eval": ["eval", "--instance", instance_file, "--method", "threshold"],
    }[command]
    monkeypatch.setenv("SUBPB_SEED", "abc")
    code, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_seed_variable_is_the_default_seed(instance_file, tmp_path, capsys, monkeypatch):
    # SUBPB_SEED stands in for a missing --seed, and --seed overrides it.
    def gen(name, *seed):
        out = tmp_path / name
        argv = ["gen", "--family", "coverage", "--m", "5", "--n", "3", *seed, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        return out.read_bytes()

    def eval_row(*seed):
        argv = ["eval", "--instance", instance_file, "--method", "marginal-rank",
                "--mode", "mc", "--samples", "2000", *seed]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_OK
        return capsys.readouterr().out

    explicit = {seed: (gen(f"s{seed}.json", "--seed", seed), eval_row("--seed", seed))
                for seed in ("3", "5", "7")}
    assert len({files for files, _ in explicit.values()}) == 3
    assert len({row for _, row in explicit.values()}) == 3
    monkeypatch.setenv("SUBPB_SEED", "7")
    assert gen("env.json") == explicit["7"][0]
    assert gen("both.json", "--seed", "3") == explicit["3"][0]
    monkeypatch.setenv("SUBPB_SEED", "5")
    assert eval_row() == explicit["5"][1]


def test_instance_id_with_a_comma_is_one_quoted_cell(instance_file, tmp_path, capsys):
    # The id is the file's basename; RFC 4180 quotes a cell with a comma.
    path = tmp_path / "a,b.json"
    path.write_bytes(Path(instance_file).read_bytes())
    out = tmp_path / "row.csv"
    argv = ["eval", "--instance", str(path), "--method", "threshold", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    header, row = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
    assert len(header) == len(row) == len(experiment.CSV_COLUMNS) == 15
    assert row[header.index("instance_id")] == "a,b.json"


def test_enumeration_past_the_exact_limit_exits_4(tmp_path, capsys, monkeypatch):
    # All ten alternatives share one group, whose rule draws a 5-subset; the
    # concave family has no closed form and would enumerate C(10, 5) sets.
    path = str(tmp_path / "concave.json")
    costs = ",".join(["3/20"] * 10)
    argv = ["gen", "--family", "concave", "--m", "10", "--n", "4",
            "--cost-model", f"fixed:{costs}", "--out", path]
    assert cli.main(argv) == cli.EXIT_OK
    monkeypatch.setattr(core, "EXACT_SUPPORT_LIMIT", math.comb(10, 5) - 1)
    code, err = run(["eval", "--instance", path, "--method", "marginal-rank"], capsys)
    assert code == cli.EXIT_BUDGET
    assert err.startswith("exact budget exceeded:") and err.count("\n") == 1


#: A one-voter additive instance on which the threshold rule misses its
#: guarantee: the value thresholds start at 1/16, so no threshold approves
#: the twelve cheap items worth just under 1/m each, and only the uniform
#: singleton reaches them.
THRESHOLD_GAP = Path(__file__).parent / "data" / "threshold_gap_m16.json"


@pytest.mark.parametrize("mix, code, expected, bound", [
    ("1/2", cli.EXIT_BOUND, "0.03928750000000002", "0.05044375000000002"),
    ("2/3", cli.EXIT_BOUND, "0.03155000000000001", "0.03362916666666668"),
    ("1/3", cli.EXIT_OK, "0.04702500000000002", "0.03362916666666668"),
])
def test_threshold_bound_fails_on_the_pinned_gap_instance(tmp_path, mix, code, expected,
                                                          bound):
    # Pins the rule as it stands: a change to the rule or to its bound
    # shows up here as a deliberate diff.
    out = tmp_path / "eval.csv"
    argv = ["eval", "--instance", str(THRESHOLD_GAP), "--method", "threshold",
            "--mix", mix, "--out", str(out)]
    assert cli.main(argv) == code
    with open(out, newline="", encoding="utf-8") as handle:
        (row,) = csv.DictReader(handle)
    assert (row["expected_welfare"], row["optimal_welfare"], row["bound_value"]) == (
        expected, "0.8071000000000004", bound)
    assert row["bound_satisfied"] == ("true" if code == cli.EXIT_OK else "false")


def test_monte_carlo_misses_the_bound_on_the_pinned_gap_instance(tmp_path):
    # The lone additive voter is summed by the welfare oracle's signature
    # part here, as every Monte Carlo draw is.
    out = tmp_path / "eval.csv"
    argv = ["eval", "--instance", str(THRESHOLD_GAP), "--method", "threshold", "--mode", "mc",
            "--seed", "3", "--samples", "200000", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_BOUND
    with open(out, newline="", encoding="utf-8") as handle:
        (row,) = csv.DictReader(handle)
    mean, stderr = float(row["expected_welfare"]), float(row["stderr"])
    assert abs(mean - 0.03928750000000002) <= 4.0 * stderr
    assert row["bound_satisfied"] == "false"


def test_a_missed_bound_exits_5_on_any_instance(tmp_path, capsys, monkeypatch):
    # Exit 5 apart from the gap file, whose rule may be mended: no mean
    # reaches an infinite bound. The CSV alone reports the miss.
    path = write_two_alternative_file(tmp_path / "small.json", ADDITIVE)
    monkeypatch.setattr(experiment, "theoretical_bound", lambda *args: math.inf)
    assert cli.main(["eval", "--instance", path, "--method", "threshold"]) == cli.EXIT_BOUND
    out, err = capsys.readouterr()
    assert err == ""
    (row,) = csv.DictReader(out.splitlines())
    assert (row["bound_value"], row["bound_satisfied"]) == ("inf", "false")


@pytest.mark.parametrize("make_path", [lambda d: d / "missing.json", lambda d: d])
def test_unreadable_instance_is_io_error(tmp_path, capsys, make_path):
    argv = ["eval", "--instance", str(make_path(tmp_path)), "--method", "threshold"]
    code, err = run(argv, capsys)
    assert code == cli.EXIT_IO
    assert err.startswith("i/o error:")


#: The first line of standard error for each exit code that reports an
#: error; a missed bound (exit 5) is reported in the CSV alone.
ERROR_PREFIXES = {cli.EXIT_USAGE: "usage error:", cli.EXIT_IO: "i/o error:",
                  cli.EXIT_PARSE: "parse error:", cli.EXIT_BUDGET: "exact budget exceeded:"}


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["eval", "--instance", "{dir}/small.json", "--method", "value-rank"],
                 cli.EXIT_OK, id="eval-small-file"),
    pytest.param(["eval", "--instance", "{dir}/small.json", "--method", "value-rank",
                  "--mix", "2"], cli.EXIT_USAGE, id="eval-mix-past-one"),
    pytest.param(["eval", "--instance", "{dir}/missing.json", "--method", "value-rank"],
                 cli.EXIT_IO, id="eval-missing-file"),
    pytest.param(["eval", "--instance", "{dir}/version-only.json", "--method", "value-rank"],
                 cli.EXIT_PARSE, id="eval-version-only"),
    pytest.param(["eval", "--instance", "{dir}/m25.json", "--method", "value-rank"],
                 cli.EXIT_BUDGET, id="eval-optimum-past-the-limit"),
    pytest.param(["eval", "--instance", str(THRESHOLD_GAP), "--method", "threshold"],
                 cli.EXIT_BOUND, id="eval-threshold-gap"),
    pytest.param(["gen", "--family", "additive", "--m", "3", "--n", "2",
                  "--out", "{dir}/missing/x.json"], cli.EXIT_IO, id="gen-out-in-missing-dir"),
    pytest.param(["gen", "--family", "additive", "--m", "0", "--n", "2",
                  "--out", "{dir}/x.json"], cli.EXIT_USAGE, id="gen-no-alternatives"),
    pytest.param(["gen", "--family", "additive", "--m", "3", "--n", "0",
                  "--out", "{dir}/x.json"], cli.EXIT_USAGE, id="gen-no-voters"),
    pytest.param(["inspect", "--instance", "{dir}/small.json"], cli.EXIT_OK,
                 id="inspect-voters"),
    pytest.param(["inspect", "--instance", "{dir}/small.json", "--opt"], cli.EXIT_OK,
                 id="inspect-opt"),
    pytest.param(["inspect", "--instance", "{dir}/small.json", "--seed", "1"], cli.EXIT_USAGE,
                 id="inspect-seed"),
    pytest.param(["inspect", "--instance", "{dir}/missing.json"], cli.EXIT_IO,
                 id="inspect-missing-file"),
    pytest.param(["inspect", "--instance", "{dir}/version-only.json"], cli.EXIT_PARSE,
                 id="inspect-version-only"),
    pytest.param(["inspect", "--instance", "{dir}/m25.json", "--opt"], cli.EXIT_BUDGET,
                 id="inspect-opt-past-the-limit"),
    pytest.param(["inspect", "--instance", "{dir}/m25.json", "--group-table"], cli.EXIT_OK,
                 id="inspect-group-table-past-the-limit"),
])
def test_exit_codes(tmp_path, capsys, argv, expected):
    # The exhaustive optimum refuses m = 25, which the group table does not need.
    write_two_alternative_file(tmp_path / "small.json", ADDITIVE)
    (tmp_path / "version-only.json").write_text('{"schema_version": 1}', encoding="utf-8")
    assert cli.main(["gen", "--family", "additive", "--m", "25", "--n", "2",
                     "--out", str(tmp_path / "m25.json")]) == cli.EXIT_OK
    capsys.readouterr()
    code, err = run([arg.format(dir=tmp_path) for arg in argv], capsys)
    assert code == expected
    if expected not in ERROR_PREFIXES:
        assert err == ""
    else:
        assert err.startswith(ERROR_PREFIXES[expected]) and err.count("\n") == 1


#: Records every import the interpreter attempts, whether or not it succeeds.
IMPORT_RECORDER = """
import sys
class Recorder:
    attempted = set()
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        cls.attempted.add(name)
sys.meta_path.insert(0, Recorder)
"""


def loaded_by_import(imports: str, modules: set[str], *flags: str) -> list[str]:
    """Which of `modules` a fresh interpreter has loaded, or has tried to
    import, after `import <imports>`: a guarded import of a module that is
    not installed shows as well."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = (f"{IMPORT_RECORDER}import {imports}\n"
             f"print(*sorted({modules!r} & (Recorder.attempted | sys.modules.keys())))")
    done = subprocess.run([sys.executable, *flags, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=60)
    return done.stdout.split()


def test_cli_import_loads_no_dataclass_machinery():
    # Generating dataclass methods was most of a cold start, and
    # `dataclasses` imports `inspect`. -S keeps site hooks out of the count.
    assert loaded_by_import("subpb.cli", {"dataclasses", "inspect"}, "-S") == []


def test_cli_import_loads_no_openssl():
    # `rng.stream` and `rng.streams` hash with the builtin sha256, as
    # `random` does with its sha512; `hashlib` would load OpenSSL in every
    # process.
    assert loaded_by_import("subpb.cli", {"hashlib", "_hashlib"}, "-S") == []


def test_program_import_loads_no_numpy():
    # Importing numpy would cost every process tens of milliseconds. An
    # import of it, guarded or not, shows whether numpy is installed or not.
    assert loaded_by_import("subpb.cli, subpb.experiment", {"numpy"}) == []


def test_the_package_runs_as_a_module(tmp_path):
    # `python -m subpb` goes through `__main__` and `cli.entry`, which turn
    # `main`'s return value into the process's exit status.
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "subpb", "inspect", "--instance",
                           str(tmp_path / "missing.json")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == cli.EXIT_IO and done.stdout == ""
    assert done.stderr.startswith("i/o error:") and done.stderr.count("\n") == 1


ADDITIVE = {"family": "additive", "params": {"values": [1.0, 1.0]}}


def write_two_alternative_file(path, voter, costs=("1/2", "1/2")):
    document = {"schema_version": 1, "m": 2, "n": 1, "costs": list(costs), "voters": [voter]}
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def test_well_formed_two_alternative_file_evaluates(tmp_path, capsys):
    path = write_two_alternative_file(tmp_path / "ok.json", ADDITIVE)
    code, err = run(["eval", "--instance", path, "--method", "threshold"], capsys)
    assert code in (cli.EXIT_OK, cli.EXIT_BOUND) and err == ""


@pytest.mark.parametrize("voter", [
    {"family": "additive", "params": {"values": [-0.0, 1.0]}},
    {"family": "coverage", "params": {"weights": [1.0, -0.0], "covers": [[0], [1]]}},
], ids=["value", "weight"])
def test_negative_zero_utility_parameters_are_accepted(tmp_path, capsys, voter):
    path = write_two_alternative_file(tmp_path / "zero.json", voter)
    code, err = run(["eval", "--instance", path, "--method", "threshold"], capsys)
    assert code == cli.EXIT_OK and err == ""


@pytest.mark.parametrize("voter, costs", [
    pytest.param({"family": "additive", "params": {"values": ["x", 1.0]}}, ("1/2", "1/2"),
                 id="non-numeric-value"),
    pytest.param({"family": "concave", "params": {"values": [1.0, 1.0], "gamma": "abc"}},
                 ("1/2", "1/2"), id="non-numeric-gamma"),
    pytest.param({"family": "additive", "params": {"values": 5}}, ("1/2", "1/2"),
                 id="values-not-a-list"),
    pytest.param({"family": "coverage", "params": {"weights": 5, "covers": [[0], [0]]}},
                 ("1/2", "1/2"), id="weights-not-a-list"),
    pytest.param({"family": "coverage", "params": {"weights": [1.0], "covers": [[0], 0]}},
                 ("1/2", "1/2"), id="cover-not-a-list"),
    pytest.param({"family": "coverage", "params": {"weights": [1.0], "covers": [[0], ["0"]]}},
                 ("1/2", "1/2"), id="cover-element-not-an-id"),
    pytest.param({"family": "coverage", "params": {"weights": [1.0]}}, ("1/2", "1/2"),
                 id="coverage-without-covers"),
    pytest.param({"family": "coverage", "params": {"weights": [1.0], "covers": 5}},
                 ("1/2", "1/2"), id="covers-not-a-list"),
    pytest.param({"family": "coverage", "params": {"weights": [1.0], "covers": [[0]]}},
                 ("1/2", "1/2"), id="one-cover-set-for-two-alternatives"),
    pytest.param({"family": "concave", "params": {"values": [1.0, 1.0]}}, ("1/2", "1/2"),
                 id="concave-without-gamma"),
    pytest.param({"family": "additive", "params": {}}, ("1/2", "1/2"), id="without-values"),
    pytest.param(ADDITIVE, ("1/0", "1/2"), id="zero-denominator-cost"),
    pytest.param(ADDITIVE, ("x", "1/2"), id="non-numeric-cost"),
    pytest.param(ADDITIVE, (0.1, "1/2"), id="float-cost"),
    pytest.param(ADDITIVE, (True, "1/2"), id="boolean-cost"),
    pytest.param({"family": "coverage", "params": {"weights": [1.0, 1.0],
                                                   "covers": [[True], [0]]}},
                 ("1/2", "1/2"), id="boolean-cover-element"),
    pytest.param({"family": "additive", "params": {"values": [True, 0.5]}}, ("1/2", "1/2"),
                 id="boolean-value"),
    pytest.param({"family": "concave", "params": {"values": [1.0, 1.0], "gamma": True}},
                 ("1/2", "1/2"), id="boolean-gamma"),
    pytest.param({"family": "additive", "params": {"values": [1.0, 1.0], "extra": 3}},
                 ("1/2", "1/2"), id="unknown-param"),
    pytest.param({"family": "concave", "params": {"values": ["0.5", "1e0"], "gamma": "0.5"}},
                 ("1/2", "1/2"), id="string-values-and-gamma"),
    pytest.param({"family": "concave", "params": {"values": [0.5, 1.0], "gamma": "0.5"}},
                 ("1/2", "1/2"), id="string-gamma"),
    # JSON integers that no float can hold.
    pytest.param({"family": "additive", "params": {"values": [10**400, 1.0]}},
                 ("1/2", "1/2"), id="400-digit-value"),
    pytest.param({"family": "coverage", "params": {"weights": [10**400], "covers": [[0], [0]]}},
                 ("1/2", "1/2"), id="400-digit-weight"),
    pytest.param({"family": "concave", "params": {"values": [1.0, 1.0], "gamma": 10**400}},
                 ("1/2", "1/2"), id="400-digit-gamma"),
    # Floats outside [0, inf); `json` writes and reads NaN and Infinity.
    *(pytest.param({"family": "additive", "params": {"values": [bad, 1.0]}}, ("1/2", "1/2"),
                   id=f"{bad}-value") for bad in (-0.5, math.nan, math.inf, -math.inf)),
    *(pytest.param({"family": "coverage", "params": {"weights": [1.0, bad],
                                                     "covers": [[0], [1]]}},
                   ("1/2", "1/2"), id=f"{bad}-weight") for bad in (-0.5, math.nan, math.inf)),
])
def test_malformed_instance_files_are_parse_errors(tmp_path, capsys, voter, costs):
    path = write_two_alternative_file(tmp_path / "bad.json", voter, costs)
    code, err = run(["eval", "--instance", path, "--method", "threshold"], capsys)
    assert code == cli.EXIT_PARSE
    assert err.startswith("parse error:") and err.count("\n") == 1


#: A two-alternative, one-voter document with a cost and a value left open.
OPEN_DOCUMENT = ('{"schema_version": 1, "m": 2, "n": 1, "costs": [%s, "1/2"], "voters": '
                 '[{"family": "additive", "params": {"values": [%s, 1.0]}}]}')


@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\xfe", id="not-utf-8"),
    pytest.param(b"[" * 200_000, id="deeply-nested"),
    pytest.param(b"[]", id="top-level-array"),
    # Past 4,300 digits `json` refuses to convert an integer.
    pytest.param((OPEN_DOCUMENT % ('"1/2"', "9" * 5000)).encode(), id="5000-digit-value"),
    pytest.param((OPEN_DOCUMENT % ("9" * 5000, "1.0")).encode(), id="5000-digit-cost"),
])
def test_files_the_decoder_refuses_are_parse_errors(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, err = run(["eval", "--instance", str(path), "--method", "threshold"], capsys)
    assert code == cli.EXIT_PARSE
    assert err.startswith("parse error:") and err.count("\n") == 1


@pytest.mark.parametrize("fields", [
    pytest.param({"costs": "11"}, id="costs-a-string"),
    pytest.param({"costs": {"1/2": 0, "1/3": 0}}, id="costs-an-object"),
    pytest.param({"voters": {"family": "additive", "params": {"values": [1.0, 1.0]}}},
                 id="voters-an-object"),
    pytest.param({"voters": [{"family": "max-value", "params": [["values", [1.0, 2.0]]]}]},
                 id="params-a-list-of-pairs"),
    pytest.param({"voters": [{**ADDITIVE, "weight": 2}]}, id="unknown-voter-key"),
    pytest.param({"voters": [{"family": "additive"}]}, id="voter-without-params"),
    pytest.param({"voters": [["additive", {"values": [1.0, 1.0]}]]}, id="voter-a-list"),
    pytest.param({"budget": 2}, id="unknown-top-level-key"),
])
def test_misshapen_documents_are_parse_errors(tmp_path, capsys, fields):
    # Two alternatives and one voter, so each file passes the m and n checks.
    document = {"schema_version": 1, "m": 2, "n": 1, "costs": ["1/2", "1/2"],
                "voters": [ADDITIVE], **fields}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, err = run(["eval", "--instance", str(path), "--method", "threshold"], capsys)
    assert code == cli.EXIT_PARSE
    assert err.startswith("parse error:") and err.count("\n") == 1


@pytest.mark.parametrize("header", [{"m": True}, {"n": True}, {"m": 1.0, "n": 1.0},
                                    {"m": 1.0}, {"n": 1.0}, {"schema_version": True},
                                    {"schema_version": 1.0}],
                         ids=["boolean-m", "boolean-n", "float-m-and-n", "float-m", "float-n",
                              "boolean-schema-version", "float-schema-version"])
def test_boolean_counts_are_parse_errors(tmp_path, capsys, header):
    # A one-cost, one-voter file, where a JSON true or 1.0 would count as 1
    # and pass for schema version 1.
    document = {"schema_version": 1, "m": 1, "n": 1, "costs": ["1"],
                "voters": [{"family": "additive", "params": {"values": [1.0]}}], **header}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, err = run(["eval", "--instance", str(path), "--method", "threshold"], capsys)
    assert code == cli.EXIT_PARSE
    assert err.startswith("parse error:") and err.count("\n") == 1


@pytest.mark.parametrize("voter", [
    pytest.param({"family": "additive", "params": {"values": [1e308, 1e308]}},
                 id="additive-sum-overflows"),
    pytest.param({"family": "max-value", "params": {"values": [1e-320, 0.0]}},
                 id="max-value-denormal"),
    pytest.param({"family": "concave", "params": {"values": [1e-320, 0.0], "gamma": 1.0}},
                 id="concave-denormal"),
])
def test_totals_without_finite_scale_are_parse_errors(tmp_path, capsys, voter):
    # Scaling these would report an inf or nan welfare ratio.
    path = write_two_alternative_file(tmp_path / "bad.json", voter)
    code, err = run(["eval", "--instance", path, "--method", "threshold"], capsys)
    assert code == cli.EXIT_PARSE
    assert err.startswith("parse error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_document_and_instance_errors_raise_the_one_validation_error(tmp_path):
    # A malformed document, undecodable bytes and an invalid instance are all
    # `core.ValidationError`, the exception behind exit 3; `load_instance`
    # passes on what `validate_instance` raises without rewording it.
    for version, cost, message in [("2", '"1/2"', "^unsupported schema_version 2$"),
                                   ("1", "0.5", "^cost 0.5 must be")]:
        text = (OPEN_DOCUMENT % (cost, "1.0")).replace('"schema_version": 1',
                                                      f'"schema_version": {version}')
        with pytest.raises(core.ValidationError, match=message):
            cli.parse_instance_file(text)
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(core.ValidationError, match="^not UTF-8 text"):
        cli.load_instance(str(path))
    path.write_text(OPEN_DOCUMENT % ('"0/1"', "1.0"), encoding="utf-8")
    with pytest.raises(core.ValidationError) as direct:
        core.validate_instance(cli.parse_instance_file(path.read_text(encoding="utf-8")))
    with pytest.raises(core.ValidationError) as loaded:
        cli.load_instance(str(path))
    assert str(loaded.value) == str(direct.value) == "alternative 0 has cost 0 <= 0"


def write_instance_file(path, costs, voters):
    document = {"schema_version": 1, "m": len(costs), "n": len(voters),
                "costs": list(costs), "voters": voters}
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def inspect_scores(path, method, capsys):
    """The exit code, standard error and, for each group t = 0..T in order,
    the lines printed under its header."""
    code = cli.main(["inspect", "--instance", path, "--scores", method])
    out, err = capsys.readouterr()
    groups = []
    for line in out.splitlines():
        if line.startswith("group "):
            assert line == f"group {len(groups)} scores ({method})"
            groups.append([])
        else:
            groups[-1].append(line)
    return code, err, groups


@pytest.mark.parametrize("method", [Method.MARGINAL_VALUES, Method.STANDALONE_VALUES],
                         ids=lambda method: method.value)
def test_inspect_scores_print_the_group_harmonic_scores(tmp_path, capsys, method):
    # Two alternatives in each of the four groups of m = 8.
    costs = ["1/8", "1/10", "1/4", "1/5", "1/2", "1/3", "1", "3/4"]
    voters = [{"family": "additive", "params": {"values": values}}
              for values in ([8, 7, 6, 5, 4, 3, 2, 1], [1, 2, 3, 4, 5, 6, 7, 8],
                             [1, 3, 5, 7, 2, 4, 6, 8])]
    path = write_instance_file(tmp_path / "inst.json", costs, voters)
    _, instance = cli.load_instance(path)
    partition = build_partition(instance)
    assert all(len(group) == 2 for group in partition.groups)
    code, err, groups = inspect_scores(path, method.value, capsys)
    assert code == cli.EXIT_OK and err == ""
    assert len(groups) == partition.T + 1
    for t, lines in enumerate(groups):
        scores = harmonic_scores(ranking_profile(instance, partition, method, t))
        assert lines == [f"{a} {scores[a]!r}" for a in partition.groups[t]]


def test_inspect_scores_of_an_empty_group(tmp_path, capsys):
    # Both costs are 1/m, so group 1 of m = 2 is empty.
    path = write_two_alternative_file(tmp_path / "inst.json", ADDITIVE)
    code, err, groups = inspect_scores(path, "marginal-rank", capsys)
    assert code == cli.EXIT_OK and err == ""
    assert groups == [["0 1.0", "1 0.5"], ["(empty group)"]]


def test_inspect_scores_without_method_is_usage_error(instance_file, capsys):
    # --scores takes the ranking method as its argument.
    code, err = run(["inspect", "--instance", instance_file, "--scores"], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_inspect_method_without_scores_is_usage_error(instance_file, capsys):
    # inspect has no --method flag, with --scores or without it.
    for flags in (["--method", "value-rank"], ["--scores", "value-rank", "--method",
                                               "value-rank"]):
        code, err = run(["inspect", "--instance", instance_file, *flags], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error:") and err.count("\n") == 1


def test_inspect_scores_of_threshold_fail_before_the_file_is_read(tmp_path, capsys):
    # Threshold votes have no scores: the flags alone are a usage error, so
    # neither the missing file nor the group table is reached.
    argv = ["inspect", "--instance", str(tmp_path / "missing.json"), "--group-table",
            "--scores", "threshold"]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


#: Distinct primes as denominators of fixed costs.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@st.composite
def generator_specs(draw):
    """Small specs of every family, with uniform, dyadic or fixed costs whose
    denominators are pairwise coprime."""
    m = draw(st.integers(min_value=1, max_value=len(PRIMES)))
    primes = draw(st.permutations(PRIMES))[:m]
    cost_model = draw(st.one_of(
        st.builds(UniformRational, st.integers(min_value=1, max_value=64)),
        st.builds(Dyadic, st.integers(min_value=0, max_value=6)),
        st.tuples(*(st.integers(1, p).map(lambda k, p=p: Fraction(k, p)) for p in primes))
        .map(Fixed),
    ))
    family = draw(st.sampled_from(core.FAMILIES))
    params = (("private_elements", True),) if family == "coverage" and draw(st.booleans()) else ()
    return GeneratorSpec(family, m, draw(st.integers(min_value=1, max_value=4)), cost_model,
                         draw(st.integers(min_value=0, max_value=2**32)), params)


METADATA = st.one_of(st.none(), st.dictionaries(
    st.text(max_size=6), st.one_of(st.integers(), st.text(max_size=6)), max_size=3))


@settings(max_examples=120, deadline=None)
@given(generator_specs(), METADATA)
def test_parse_inverts_render(spec, metadata):
    raw = generate_raw(spec)
    text = cli.render_instance_file(raw, metadata)
    parsed = cli.parse_instance_file(text)
    assert parsed == raw
    assert cli.render_instance_file(parsed, metadata) == text
