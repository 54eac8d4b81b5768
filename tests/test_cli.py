"""CLI exit codes for malformed flags and unreadable files."""

import pytest

from subpb import cli


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
    ["--solver", "fptas:abc"],
    ["--solver", "fptas:2"],
    ["--mode", "mc", "--samples", "1"],
])
def test_bad_eval_flags_are_usage_errors(instance_file, capsys, flags):
    code, err = run(["eval", "--instance", instance_file, "--method", "threshold", *flags],
                    capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("model", ["uniform:x", "uniform:0", "dyadic:-1", "fixed:1/2,1/4"])
def test_bad_cost_models_are_usage_errors(tmp_path, capsys, model):
    argv = ["gen", "--family", "additive", "--m", "3", "--n", "2",
            "--cost-model", model, "--out", str(tmp_path / "x.json")]
    code, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("make_path", [lambda d: d / "missing.json", lambda d: d])
def test_unreadable_instance_is_io_error(tmp_path, capsys, make_path):
    argv = ["eval", "--instance", str(make_path(tmp_path)), "--method", "threshold"]
    code, err = run(argv, capsys)
    assert code == cli.EXIT_IO
    assert err.startswith("i/o error:")
