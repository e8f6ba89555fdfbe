"""The benchmark's known answers (perfbench/selfcheck.py) guard the library
on every test run, and every request kind the benchmark issues is replayed
through the CLI against the answers its generator (perfbench/gen.py) knows,
so its output stays byte-identical."""

import importlib.util
import os
import subprocess
import sys

import pytest

from exhom.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _gen():
    """perfbench/gen.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_benchmark_selfcheck_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py", "--instances", "8"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "selfcheck: PASS" in run.stdout


@pytest.mark.parametrize("workload, seed, groups, kinds", [
    ("ss-zigzag", 3, 4, {"ss-col", "ss-row", "oppose"}),
    ("ss-zigzag", 8, 4, {"ss-col", "ss-row", "oppose"}),
    ("snf-dense", 3, 4, {"snf-uniform", "snf-planted"}),
    ("chain-uct", 3, 4, {"uct-small", "uct-large"}),
])
def test_cli_replays_the_benchmark_requests(tmp_path, capsys, workload,
                                            seed, groups, kinds):
    gen = _gen()
    manifest = gen.build(workload, seed, groups, str(tmp_path))
    requests = manifest["warmup"] + manifest["requests"]
    assert {r["kind"] for r in requests} == kinds
    for r in requests:
        assert main(r["argv"]) == 0, r["argv"]
        out, err = capsys.readouterr()
        assert err == ""
        if "stdout" in r:
            assert out == r["stdout"], r["argv"]
        else:
            assert gen.check_snf_line(out.strip(), r["snf"]) is None
