"""Module boundaries: no tghnet module imports another's private names,
config and nn import in either order, data imports only errors, evaluate
only tgh, no command imports scipy, the benchmark tracer's wrapped names
exist, the g -> 0 limit of tgh lives in its two kernels, tgh._ret alone
decides that a result is a float, cli.main alone decides exit codes, the
network keeps its state in no object but itself, and tgh.by_blocks is the
one row-block loop, with no repeat call on a solver error."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tghnet"


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "tghnet"
            offenders += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if internal and alias.name.startswith("_")
            ]
    assert offenders == []


def _run(code: str) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter that imports tghnet from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("first, second", [("config", "nn"), ("nn", "config")])
def test_config_and_nn_import_in_either_order(first, second):
    # nn.persist reads its header through config, which imports nn
    result = _run(f"import tghnet.{first}, tghnet.{second}")
    assert result.returncode == 0, result.stderr


def test_data_does_not_import_nn():
    # nor any tghnet module but errors: data owns Standardization and the
    # split rules, which config and nn.persist import, not the other way round
    result = _run("import sys, tghnet.data; "
                  "print(sorted(m for m in sys.modules if m.startswith('tghnet.')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['tghnet.data', 'tghnet.errors']"


def test_no_command_imports_scipy(tmp_path):
    # scipy is a test oracle only; the runtime needs numpy alone
    config = {"loss": "tukey", "data": {"target": "y", "features": ["x"]},
              "network": {"hidden": [8]}, "training": {"epochs": 1, "batch_size": 64},
              "split": {"rule": "fraction", "fraction": 0.8, "seed": 0}}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    commands = [
        "simulate --design gandh --n 200 --out sim.csv",
        "train --config cfg.json --data sim.csv --out model.tghn --svg loss.svg",
        "evaluate --model model.tghn --data sim.csv --split val --out report --svg qq.svg",
        "intervals --model model.tghn --data sim.csv --split val --variant shortest --out s.csv",
        "intervals --model model.tghn --data sim.csv --split val --variant symmetric --out c.csv",
        "density --model model.tghn --features 0.5 --y-grid=-3:3:11 --out curves.csv",
    ]
    result = _run(f"import os, sys; os.chdir({str(tmp_path)!r}); from tghnet.cli import main\n"
                  f"for c in {commands!r}: assert main(c.split()) == 0, c\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_perfbench_tracer_wraps_names_that_exist(tmp_path):
    # a traced benchmark run wraps tghnet names by string; a renamed one
    # fails here rather than inside the benchmark, and perfbench/ gets no
    # bytecode cache
    child = PACKAGE.parents[1] / "perfbench" / "child.py"
    for loss in ("tukey", "gaussian"):
        (tmp_path / f"{loss}.json").write_text(json.dumps(
            {"loss": loss, "data": {"target": "y", "features": ["x"]},
             "network": {"hidden": [8]}, "training": {"epochs": 1, "batch_size": 64},
             "split": {"rule": "fraction", "fraction": 0.8, "seed": 0}}))
    commands = [
        "simulate --design gandh --n 200 --out sim.csv",
        "train --config gaussian.json --data sim.csv --out gaussian.tghn",
        "train --config tukey.json --data sim.csv --out model.tghn",
        "evaluate --model model.tghn --data sim.csv --split val --out report",
        "intervals --model model.tghn --data sim.csv --split val --out iv.csv",
        "intervals --model model.tghn --data sim.csv --split val --variant shortest "
        "--out shortest.csv",
        "density --model model.tghn --features 0.5 --y-grid=-3:3:11 --out curves.csv",
    ]
    names = set()
    for i, command in enumerate(commands):
        spans = tmp_path / f"spans{i}.json"
        result = subprocess.run([sys.executable, str(child), "--trace-out", str(spans), "--",
                                 *command.split()], capture_output=True, text=True,
                                cwd=tmp_path, timeout=120,
                                env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        assert result.returncode == 0, (command, result.stderr)
        names |= {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"tgh.tau_inverse", "loss.tukey_head_loss", "loss.gaussian_head_loss",
            "nn.train.evaluate_mean_loss", "evaluate.residuals",
            "evaluate.shortest_interval"} <= names


def test_small_g_is_read_only_by_the_two_kernels():
    tree = ast.parse((PACKAGE / "tgh.py").read_text(encoding="utf-8"))

    def reads(node):
        return sum(isinstance(n, ast.Name) and n.id == "SMALL_G" and isinstance(n.ctx, ast.Load)
                   for n in ast.walk(node))

    kernels = [f for f in tree.body
               if isinstance(f, ast.FunctionDef) and f.name in ("_tau_parts", "_log_bracket")]
    assert len(kernels) == 2 and all(reads(f) for f in kernels)
    assert reads(tree) == sum(map(reads, kernels))
    names = {getattr(n, "id", None) or getattr(n, "arg", None) for n in ast.walk(tree)}
    assert "g_safe" not in names


def test_only_tgh_ret_tests_for_scalars():
    # a result is a float because it is 0-d: no function inspects its inputs
    offenders = []
    for module in ("tgh", "loss", "evaluate"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        ret = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_ret"]
        inside = {id(n) for f in ret for n in ast.walk(f)}
        offenders += [
            f"{module}.py:{n.lineno}" for n in ast.walk(tree) if id(n) not in inside and (
                isinstance(n, ast.Call) and ast.unparse(n.func) in ("np.ndim", "np.atleast_1d")
                or getattr(n, "id", getattr(n, "name", None)) == "_is_scalar")]
        assert (module == "tgh") == (len(ret) == 1)
    assert offenders == []


def test_evaluate_imports_no_tghnet_module_but_tgh():
    # evaluate is numerics only: cli writes the scoring files (tgh imports errors)
    result = _run("import sys, tghnet.evaluate; "
                  "print(sorted(m for m in sys.modules if m.startswith('tghnet.')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['tghnet.errors', 'tghnet.evaluate', 'tghnet.tgh']"


def test_only_cli_main_decides_exit_codes():
    # commands raise; main alone prints a failure line and returns its code
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def exits(node):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "print"
                and any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                        for k in n.keywords)
                or isinstance(n, ast.Return) and isinstance(n.value, ast.Constant)
                and type(n.value.value) is int and n.value.value != 0]

    assert len(exits(tree)) == len(exits(functions["main"])) > 0
    commands = [f for name, f in functions.items() if name.startswith("cmd_")]
    assert len(commands) == 5
    assert [f.name for f in commands for n in ast.walk(f)
            if isinstance(n, ast.Return) and n.value is not None] == []


def test_network_is_one_layer_loop_with_one_cache():
    # no layer objects: Network alone holds state, set in __init__ but for
    # the activation cache that forward replaces
    tree = ast.parse((PACKAGE / "nn" / "network.py").read_text(encoding="utf-8"))
    classes = {c.name: c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)}
    assert set(classes) == {"NetworkConfig", "NetworkSpec", "Network"}

    def stores(node):
        return [ast.unparse(n) for n in ast.walk(node) if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, (ast.Store, ast.Del)) and ast.unparse(n.value) == "self"]

    methods = {f.name: f for f in classes["Network"].body if isinstance(f, ast.FunctionDef)}
    assert stores(methods["__init__"])
    assert [(name, attr) for name, f in methods.items() if name != "__init__"
            for attr in stores(f)] == [("forward", "self._cache")]
    assert len(stores(tree)) == len(stores(methods["__init__"])) + 1


def _nodes_by_function():
    """(module path:function, node) for every node inside a top-level
    function or a method of src/, nested functions counted as their outer one."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            methods = top.body if isinstance(top, ast.ClassDef) else [top]
            for f in methods:
                if isinstance(f, ast.FunctionDef):
                    name = f"{module}:{top.name + '.' if f is not top else ''}{f.name}"
                    yield from ((name, n) for n in ast.walk(f))


def test_one_row_block_loop_and_no_repeat_call_on_a_solver_error():
    # rows are cut into blocks by tgh.by_blocks alone, besides write_csv's
    # writes and train's batches (a countdown range is no block loop); the
    # five scoring passes go through it, and the QQ and KS passes by rank
    # through _by_rank; and a handler that can catch a
    # SolverError calls nothing, so a failed call is never run again (cli.main
    # alone prints one)
    loops, callers, handler_calls = set(), set(), []
    for name, n in _nodes_by_function():
        if (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "range"
                and len(n.args) == 3 and not isinstance(n.args[2], ast.UnaryOp)):
            loops.add(name)
        if isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1] == "by_blocks":
            callers.add(name)
        if isinstance(n, ast.ExceptHandler) and n.type is not None and name != "cli.py:main":
            caught = n.type.elts if isinstance(n.type, ast.Tuple) else [n.type]
            if {"SolverError", "TghError"} & {ast.unparse(t) for t in caught}:
                handler_calls += [name for c in ast.walk(n) if isinstance(c, ast.Call)]
    assert loops == {"tgh.py:by_blocks", "data.py:write_csv", "nn/train.py:train"}
    assert callers == {"nn/persist.py:ModelBundle.predict_params",
                       "nn/train.py:evaluate_mean_loss", "evaluate.py:residuals",
                       "evaluate.py:shortest_interval", "evaluate.py:density_curve",
                       "evaluate.py:_by_rank"}
    assert handler_calls == []
