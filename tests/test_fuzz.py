"""Seeded fuzz of the command line on mutated benchmark configs.

Each trial takes one of the benchmark workloads' configs (shrunk to small
grids and few points), applies a few random mutations (a dropped key, a
value of another JSON type, NaN, infinity, a huge or a negative number),
runs ``norms``, ``eval`` or ``surface``, or else ``verify`` or ``approx``
at a tiny resolution, in process and requires exit code 0, 1 or 2. A
traceback fails the test through the exception itself; a failing exit code
must come with exactly one ``error:`` line on stderr.
"""

import copy
import json
import random

import pytest

from fractalis.cli import main

# the benchmark workloads' configs at small sizes
BASES = {
    "surface-2d": {
        "box": {"bounds": [[0, 1], [0, 1]]},
        "net": {"knots": [[0, 0.5, 1], [0, 0.5, 1]]},
        "fields": {"f": "sin(3*x1)*cos(2*x2)+x1*x2", "alpha": "0.3+0.2*x1*x2"},
        "operator": {"kind": "blend", "t": 0.6},
        "run": {"resolution": 9, "tol": 1e-8, "seed": 0,
                "points": [[0.25, 0.5], [1.0, 0.0]]},
    },
    "eval-3d": {
        "box": {"bounds": [[0, 1], [0, 1], [0, 1]]},
        "net": {"knots": [[0, 0.5, 1]] * 3},
        "fields": {"f": "x1*x2+x3^2", "alpha": 0.3},
        "operator": {"kind": "blend", "t": 0.5},
        "run": {"resolution": 5, "points": [[0.1, 0.2, 0.3], [0.5, 0.5, 1.0]]},
    },
    "verify-2d": {
        "box": {"bounds": [[0, 1], [0, 2]]},
        "net": {"knots": [[0, 0.3, 0.6, 1], [0, 1, 2]]},
        "fields": {"f": "sin(3*x1)*cos(x2)+x1*x2", "alpha": "0.2+0.1*x1*x2"},
        "operator": {"kind": "blend", "t": 0.6},
        "run": {"resolution": 9, "seed": 0, "p": [1, 2],
                "points": [[0.3, 1.5]]},
    },
    "fif-surface-3d": {
        "box": {"bounds": [[0, 1], [0, 1], [0, 1]]},
        "net": {"knots": [[0, 0.5, 1]] * 3},
        "fif": {"delta": 0.4,
                "values": [[[0.1 * (i + j - k) for k in range(3)]
                            for j in range(3)] for i in range(3)]},
        "run": {"resolution": 5, "points": [[0.5, 0.25, 0.75]]},
    },
}

# the 3-D scale-field config builds a 129^3 sup grid per run
TRIALS = {"surface-2d": 200, "eval-3d": 20, "verify-2d": 200, "fif-surface-3d": 200}
# verify and approx: a valid 2-D scale-field config takes about 0.3 s of
# verify, a valid 3-D one about 2 s
BATTERY_TRIALS = {"surface-2d": 40, "eval-3d": 3, "verify-2d": 40, "fif-surface-3d": 60}

OTHER_TYPES = (None, True, "text", "x1", [], {}, [1, 2], [[0, 1]], 3, 0.5)


def _paths(node, prefix=()):
    """Every key or index path into the nested config, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutate(rng, cfg):
    path = rng.choice(list(_paths(cfg)))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    kind = rng.choice(("drop", "type", "nan", "inf", "huge", "negative"))
    if kind == "drop" and isinstance(parent, dict):
        del parent[key]
    elif kind == "drop":
        parent.pop(key)
    elif kind == "type":
        parent[key] = rng.choice(OTHER_TYPES)
    elif kind == "nan":
        parent[key] = float("nan")
    elif kind == "inf":
        parent[key] = rng.choice((float("inf"), float("-inf")))
    elif kind == "huge":
        # 2049 is just above the grid cap as a 2-D or 3-D resolution
        parent[key] = rng.choice((1e308, 10**30, 2**22 + 1, 2049))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        parent[key] = -value if value else -1
    else:
        parent[key] = -1


def _command(rng, path):
    cmd = rng.choice(("norms", "eval", "surface"))
    argv = [cmd, "--config", str(path)]
    if cmd == "norms":
        argv += ["--resolution", "9"]
    return argv


def _battery_command(rng, path):
    cmd = rng.choice(("verify", "approx"))
    argv = [cmd, "--config", str(path), "--resolution", "5"]
    if cmd == "approx":
        argv += ["--epsilon", "0.1"]
    return argv


@pytest.mark.parametrize("name", sorted(BASES))
def test_mutated_configs_exit_cleanly(tmp_path, capsys, name):
    _run_trials(random.Random(f"fuzz-{name}"), name, TRIALS[name], _command,
                tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(BASES))
def test_mutated_configs_exit_cleanly_under_verify_and_approx(tmp_path, capsys, name):
    _run_trials(random.Random(f"fuzz-battery-{name}"), name, BATTERY_TRIALS[name],
                _battery_command, tmp_path, capsys)


def _run_trials(rng, name, trials, command, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for trial in range(trials):
        cfg = copy.deepcopy(BASES[name])
        for _ in range(rng.randint(1, 3)):
            if cfg:
                _mutate(rng, cfg)
        path.write_text(json.dumps(cfg))
        argv = command(rng, path)
        code = main(argv)
        err = capsys.readouterr().err
        where = f"trial {trial}: {argv[0]} on {json.dumps(cfg)}"
        assert code in (0, 1, 2), where
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (where, err)
