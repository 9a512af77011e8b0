"""Positive and negative fixtures for every lint rule (R001-R008).

Each rule is demonstrated by at least one *failing* fixture (the rule
fires on code exhibiting the hazard) and one *passing* fixture (the
sanctioned idiom stays clean).  Fixture trees mirror the real package
layout — ``<tmp>/repro/core/x.py`` — because the engine classifies files
by their ``repro`` path component.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

import pytest

from repro.lint import Diagnostic, lint_paths


def _write_tree(root: Path, files: Dict[str, str]) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def _lint(root: Path, *rule_ids: str) -> List[Diagnostic]:
    result = lint_paths([root], rule_ids=list(rule_ids) or None, root=root)
    return result.diagnostics


class TestR001SeededRng:
    def test_flags_unseeded_default_rng(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/baselines/x.py": (
                "import numpy as np\n"
                "def f():\n"
                "    rng = np.random.default_rng()\n"
            ),
        })
        diags = _lint(tmp_path, "R001")
        assert len(diags) == 1
        assert diags[0].rule_id == "R001"
        assert diags[0].line == 3
        assert "make_rng" in diags[0].message

    def test_flags_stdlib_random(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/tasks/x.py": (
                "import random\n"
                "value = random.random()\n"
            ),
        })
        diags = _lint(tmp_path, "R001")
        assert len(diags) == 1

    def test_flags_from_import_random(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/tasks/x.py": (
                "from random import shuffle\n"
                "shuffle([1, 2])\n"
            ),
        })
        assert len(_lint(tmp_path, "R001")) == 1

    def test_rng_module_is_exempt(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/rng.py": (
                "import numpy as np\n"
                "def make_rng(seed=None):\n"
                "    return np.random.default_rng(seed)\n"
            ),
        })
        assert _lint(tmp_path, "R001") == []

    def test_generator_method_calls_are_fine(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/x.py": (
                "def f(rng):\n"
                "    return rng.random() + rng.integers(10)\n"
            ),
        })
        assert _lint(tmp_path, "R001") == []

    def test_seed_sequence_construction_is_fine(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/other.py": (
                "import numpy as np\n"
                "seq = np.random.SeedSequence(entropy=7)\n"
            ),
        })
        assert _lint(tmp_path, "R001") == []


class TestR002Determinism:
    def test_flags_set_iteration(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/x.py": (
                "def f(items):\n"
                "    bands = set()\n"
                "    for item in items:\n"
                "        bands.add(item)\n"
                "    total = 0.0\n"
                "    for band in bands:\n"
                "        total += band\n"
                "    return total\n"
            ),
        })
        diags = _lint(tmp_path, "R002")
        assert len(diags) == 1
        assert diags[0].line == 6
        assert "sorted" in diags[0].message

    def test_sorted_set_iteration_is_fine(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/x.py": (
                "def f(items):\n"
                "    bands = set(items)\n"
                "    return [b for b in sorted(bands)]\n"
            ),
        })
        assert _lint(tmp_path, "R002") == []

    def test_flags_wall_clock_and_environ(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/net/x.py": (
                "import os\n"
                "import time\n"
                "def f():\n"
                "    t = time.time()\n"
                "    flag = os.getenv('TSAJS_FLAG')\n"
                "    return t, flag, os.environ['HOME']\n"
            ),
        })
        diags = _lint(tmp_path, "R002")
        assert len(diags) == 3

    def test_perf_counter_is_exempt(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/x.py": (
                "import time\n"
                "def f():\n"
                "    return time.perf_counter()\n"
            ),
        })
        assert _lint(tmp_path, "R002") == []

    def test_rule_is_scoped_to_core_and_net(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/analysis/x.py": (
                "import time\n"
                "def f():\n"
                "    return time.time()\n"
            ),
        })
        assert _lint(tmp_path, "R002") == []


class TestR003Units:
    def test_flags_inline_db_conversion(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/net/x.py": (
                "def gain(loss_db):\n"
                "    return 10.0 ** (-loss_db / 10.0)\n"
            ),
        })
        diags = _lint(tmp_path, "R003")
        assert len(diags) == 1
        assert "db_to_linear" in diags[0].message

    def test_flags_kb_and_mega_factors(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/x.py": (
                "def convert(kb, mc, ghz):\n"
                "    bits = kb * 8192.0\n"
                "    cycles = mc * 1e6\n"
                "    hz = ghz * 1e9\n"
                "    eight_k = 8 * 1024\n"
                "    return bits, cycles, hz, eight_k\n"
            ),
        })
        diags = _lint(tmp_path, "R003")
        assert len(diags) == 4

    def test_units_module_is_exempt(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/units.py": (
                "BITS_PER_KB = 8 * 1024\n"
                "def db_to_linear(db):\n"
                "    return 10.0 ** (db / 10.0)\n"
            ),
        })
        assert _lint(tmp_path, "R003") == []

    def test_helper_calls_are_fine(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/x.py": (
                "from repro.units import kb_to_bits\n"
                "def convert(kb):\n"
                "    return kb_to_bits(kb)\n"
            ),
        })
        assert _lint(tmp_path, "R003") == []

    def test_unrelated_constants_are_fine(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/x.py": (
                "TOLERANCE = 1e-6\n"
                "def f(x):\n"
                "    return x * 2.0 + 1e-9\n"
            ),
        })
        assert _lint(tmp_path, "R003") == []


class TestR004Equations:
    def test_flags_unknown_equation_citation(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/x.py": (
                'def f():\n'
                '    """Implements Eq. 99 of the paper."""\n'
                '    return 0\n'
            ),
        })
        diags = _lint(tmp_path, "R004")
        assert len(diags) == 1
        assert "Eq. 99" in diags[0].message
        assert diags[0].line == 2

    def test_flags_missing_required_citation(self, tmp_path):
        # A module registered in REQUIRED_CITATIONS whose function lost
        # its equation reference.
        _write_tree(tmp_path, {
            "repro/core/allocation.py": (
                'def kkt_allocation():\n'
                '    """Closed-form optimum (uncited)."""\n'
                '\n'
                'def optimal_allocation_cost():\n'
                '    """Eq. 23 cost."""\n'
                '\n'
                'def allocation_cost():\n'
                '    """Eq. 20a objective."""\n'
            ),
        })
        diags = _lint(tmp_path, "R004")
        assert len(diags) == 1
        assert "kkt_allocation" in diags[0].message
        assert "Eq. 22" in diags[0].message

    def test_flags_renamed_registered_function(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/allocation.py": (
                'def kkt_allocation_v2():\n'
                '    """Eq. 22."""\n'
                '\n'
                'def optimal_allocation_cost():\n'
                '    """Eq. 23."""\n'
                '\n'
                'def allocation_cost():\n'
                '    """Eq. 20a."""\n'
            ),
        })
        diags = _lint(tmp_path, "R004")
        assert len(diags) == 1
        assert "missing" in diags[0].message

    def test_valid_citations_pass(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/net/x.py": (
                '"""SINR model, Eq. (3)-(4) and Algorithm 1."""\n'
                'def f():\n'
                '    """Per Eq. 4."""\n'
                '    return 0\n'
            ),
        })
        assert _lint(tmp_path, "R004") == []

    def test_rule_ignores_other_packages(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/analysis/x.py": (
                'def f():\n'
                '    """Implements Eq. 99."""\n'
                '    return 0\n'
            ),
        })
        assert _lint(tmp_path, "R004") == []


class TestR005Accumulation:
    def test_flags_builtin_sum(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/x.py": (
                "def f(values):\n"
                "    return sum(values)\n"
            ),
        })
        diags = _lint(tmp_path, "R005")
        assert len(diags) == 1
        assert "np.sum" in diags[0].message

    def test_flags_math_fsum(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/x.py": (
                "import math\n"
                "def f(values):\n"
                "    return math.fsum(values)\n"
            ),
        })
        assert len(_lint(tmp_path, "R005")) == 1

    def test_numpy_reductions_are_fine(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/x.py": (
                "import numpy as np\n"
                "def f(values):\n"
                "    return np.sum(values) + np.add.reduce(values)\n"
            ),
        })
        assert _lint(tmp_path, "R005") == []

    def test_scoped_to_core(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/analysis/x.py": (
                "def f(values):\n"
                "    return sum(values)\n"
            ),
        })
        assert _lint(tmp_path, "R005") == []

    def test_flags_blas_reductions_in_delta_module(self, tmp_path):
        """core/delta.py falls under R005, including the BLAS ban."""
        _write_tree(tmp_path, {
            "repro/core/delta.py": (
                "import numpy as np\n"
                "def f(a, b):\n"
                "    return np.dot(a, b) + np.einsum('ij,j->i', a, b)\n"
            ),
        })
        diags = _lint(tmp_path, "R005")
        assert len(diags) == 2
        assert all("BLAS" in d.message for d in diags)

    def test_flags_matmul_operator(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/delta.py": (
                "def f(a, b):\n"
                "    return a @ b\n"
            ),
        })
        diags = _lint(tmp_path, "R005")
        assert len(diags) == 1
        assert "@ operator" in diags[0].message

    def test_elementwise_product_with_reduce_is_fine(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/delta.py": (
                "import numpy as np\n"
                "def f(a, b):\n"
                "    return np.add.reduce(a * b, axis=1)\n"
            ),
        })
        assert _lint(tmp_path, "R005") == []


class TestR006ConfigDrift:
    CONFIG = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class SimulationConfig:\n"
        "    n_users: int = 30\n"
        "    dead_knob: float = 1.0\n"
        "    tx_power_dbm: float = 10.0\n"
        "    def __post_init__(self):\n"
        "        assert self.n_users >= 0 and self.dead_knob > 0\n"
        "        assert self.tx_power_dbm > -100\n"
        "    @property\n"
        "    def tx_power_watts(self):\n"
        "        return 10.0 ** ((self.tx_power_dbm - 30.0) / 10.0)\n"
    )
    CONSUMER = (
        "def build(config):\n"
        "    return config.n_users, config.tx_power_watts\n"
    )

    def _docs(self, root, fields=("n_users", "dead_knob", "tx_power_dbm")):
        docs = root / "docs"
        docs.mkdir(exist_ok=True)
        (docs / "api.md").write_text(
            "\n".join(f"- `{name}`: documented" for name in fields),
            encoding="utf-8",
        )

    def test_flags_unconsumed_field(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/config.py": self.CONFIG,
            "repro/sim/build.py": self.CONSUMER,
        })
        self._docs(tmp_path)
        diags = _lint(tmp_path, "R006")
        assert len(diags) == 1
        assert "dead_knob" in diags[0].message
        assert "never read" in diags[0].message
        assert diags[0].line == 5

    def test_accessor_alias_counts_as_consumption(self, tmp_path):
        # tx_power_dbm is only read via the tx_power_watts property —
        # that must count, and dropping the downstream read must not.
        _write_tree(tmp_path, {
            "repro/sim/config.py": self.CONFIG,
            "repro/sim/build.py": (
                "def build(config):\n"
                "    return config.n_users, config.dead_knob\n"
            ),
        })
        self._docs(tmp_path)
        diags = _lint(tmp_path, "R006")
        assert len(diags) == 1
        assert "tx_power_dbm" in diags[0].message

    def test_flags_undocumented_field(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/config.py": self.CONFIG,
            "repro/sim/build.py": (
                "def build(config):\n"
                "    return config.n_users, config.dead_knob, "
                "config.tx_power_watts\n"
            ),
        })
        self._docs(tmp_path, fields=("n_users", "tx_power_dbm"))
        diags = _lint(tmp_path, "R006")
        assert len(diags) == 1
        assert "dead_knob" in diags[0].message
        assert "documented" in diags[0].message

    def test_clean_config_passes(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/config.py": self.CONFIG,
            "repro/sim/build.py": (
                "def build(config):\n"
                "    return config.n_users, config.dead_knob, "
                "config.tx_power_watts\n"
            ),
        })
        self._docs(tmp_path)
        assert _lint(tmp_path, "R006") == []

    def test_bare_self_attribute_does_not_mask_drift(self, tmp_path):
        # An unrelated class with a same-named self attribute must not
        # count as consumption of the config field.
        _write_tree(tmp_path, {
            "repro/sim/config.py": self.CONFIG,
            "repro/sim/build.py": (
                "class Worker:\n"
                "    def __init__(self, dead_knob):\n"
                "        self.dead_knob = dead_knob\n"
                "    def run(self):\n"
                "        return self.dead_knob\n"
                "def build(config):\n"
                "    return config.n_users, config.tx_power_watts\n"
            ),
        })
        self._docs(tmp_path)
        diags = _lint(tmp_path, "R006")
        assert len(diags) == 1
        assert "dead_knob" in diags[0].message


class TestR007ExceptionHygiene:
    def test_flags_bare_except(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/experiments/x.py": (
                "def f():\n"
                "    try:\n"
                "        return 1\n"
                "    except:\n"
                "        return 0\n"
            ),
        })
        diags = _lint(tmp_path, "R007")
        assert len(diags) == 1
        assert "KeyboardInterrupt" in diags[0].message

    def test_flags_swallowed_exception(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/x.py": (
                "def f():\n"
                "    try:\n"
                "        risky()\n"
                "    except Exception:\n"
                "        pass\n"
            ),
        })
        diags = _lint(tmp_path, "R007")
        assert len(diags) == 1
        assert "swallows" in diags[0].message

    def test_flags_swallowed_base_exception_in_tuple(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/x.py": (
                "def f():\n"
                "    try:\n"
                "        risky()\n"
                "    except (ValueError, BaseException) as exc:\n"
                "        ...\n"
            ),
        })
        assert len(_lint(tmp_path, "R007")) == 1

    def test_recording_broad_handler_is_fine(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/x.py": (
                "def f(failures):\n"
                "    try:\n"
                "        risky()\n"
                "    except Exception as exc:\n"
                "        failures.append(str(exc))\n"
            ),
        })
        assert _lint(tmp_path, "R007") == []

    def test_narrow_silent_handler_is_fine(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/x.py": (
                "def f(mapping):\n"
                "    try:\n"
                "        del mapping['k']\n"
                "    except KeyError:\n"
                "        pass\n"
            ),
        })
        assert _lint(tmp_path, "R007") == []


class TestR008TelemetryDiscipline:
    def test_flags_import_time(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/x.py": (
                "import time\n"
                "start = time.perf_counter()\n"
            ),
        })
        diags = _lint(tmp_path, "R008")
        assert len(diags) == 2
        assert {d.line for d in diags} == {1, 2}
        assert "repro.obs.clock" in diags[0].message

    def test_flags_from_time_import(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/x.py": "from time import sleep\n",
        })
        diags = _lint(tmp_path, "R008")
        assert len(diags) == 1
        assert "repro.obs.clock" in diags[0].message

    def test_flags_time_sleep_call(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/experiments/x.py": (
                "import time\n"
                "def backoff():\n"
                "    time.sleep(0.5)\n"
            ),
        })
        diags = _lint(tmp_path, "R008")
        assert {d.line for d in diags} == {1, 3}

    def test_flags_print_call(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/x.py": (
                "def run():\n"
                "    print('done')\n"
            ),
        })
        diags = _lint(tmp_path, "R008")
        assert len(diags) == 1
        assert "recorder" in diags[0].message

    def test_obs_clock_idiom_passes(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/core/x.py": (
                "from repro.obs.clock import Stopwatch, sleep\n"
                "def run():\n"
                "    watch = Stopwatch()\n"
                "    sleep(0.0)\n"
                "    return watch.elapsed()\n"
            ),
        })
        assert _lint(tmp_path, "R008") == []

    def test_obs_package_is_out_of_scope(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/obs/clock.py": (
                "import time\n"
                "def monotonic():\n"
                "    return time.perf_counter()\n"
            ),
        })
        assert _lint(tmp_path, "R008") == []

    def test_other_packages_are_out_of_scope(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/analysis/x.py": "import time\nprint(time.time())\n",
        })
        assert _lint(tmp_path, "R008") == []

    def test_suppression_comment_is_honoured(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/x.py": (
                "def debug():\n"
                "    print('x')  # repro-lint: disable=R008\n"
            ),
        })
        assert _lint(tmp_path, "R008") == []

    def test_time_variable_attribute_is_fine(self, tmp_path):
        # A local object that happens to be named `time` is not the module.
        # The AST rule cannot tell them apart, but names like
        # `metrics.time_s` or calls like `t.time_s()` must not trip it.
        _write_tree(tmp_path, {
            "repro/sim/x.py": (
                "def f(metrics):\n"
                "    return metrics.wall_time_s\n"
            ),
        })
        assert _lint(tmp_path, "R008") == []

    def test_flags_open_write_in_obs(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/obs/x.py": (
                "def publish(path, line):\n"
                "    with open(path, 'w') as handle:\n"
                "        handle.write(line)\n"
            ),
        })
        diags = _lint(tmp_path, "R008")
        assert len(diags) == 1
        assert "repro.atomicio" in diags[0].message

    def test_flags_open_write_mode_keyword_in_executors(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/executors/x.py": (
                "def publish(path):\n"
                "    open(path, mode='a').close()\n"
            ),
        })
        assert len(_lint(tmp_path, "R008")) == 1

    def test_flags_write_text_in_executors(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/sim/executors/x.py": (
                "def publish(path, body):\n"
                "    path.write_text(body)\n"
            ),
        })
        diags = _lint(tmp_path, "R008")
        assert len(diags) == 1
        assert "write_text" in diags[0].message

    def test_open_read_mode_is_fine(self, tmp_path):
        _write_tree(tmp_path, {
            "repro/obs/x.py": (
                "def load(path):\n"
                "    with open(path, 'r') as handle:\n"
                "        return handle.read()\n"
                "def load_default_mode(path):\n"
                "    with open(path) as handle:\n"
                "        return handle.read()\n"
            ),
        })
        assert _lint(tmp_path, "R008") == []

    def test_open_write_outside_write_scope_is_fine(self, tmp_path):
        # The write check covers only repro/obs and repro/sim/executors;
        # other packages (e.g. experiments persistence, which streams
        # journal lines incrementally on purpose) keep direct writes.
        _write_tree(tmp_path, {
            "repro/experiments/x.py": (
                "def publish(path, body):\n"
                "    with open(path, 'w') as handle:\n"
                "        handle.write(body)\n"
            ),
            "repro/sim/x.py": (
                "def publish(path, body):\n"
                "    path.write_text(body)\n"
            ),
        })
        assert _lint(tmp_path, "R008") == []


class TestEveryRuleHasFailingFixture:
    """Meta-guarantee: each registered rule fires on at least one fixture."""

    FIXTURES = {
        "R001": ("repro/core/x.py", "import random\nrandom.seed(3)\n"),
        "R002": ("repro/core/x.py", "for x in {1, 2}:\n    print(x)\n"),
        "R003": ("repro/net/x.py", "y = 3.0 * 1e9\n"),
        "R004": ("repro/core/x.py", '"""Eq. 1234."""\n'),
        "R005": ("repro/core/x.py", "total = sum([1.0, 2.0])\n"),
        "R006": (
            "repro/sim/config.py",
            "class SimulationConfig:\n    ghost: int = 1\n",
        ),
        "R007": (
            "repro/sim/x.py",
            "try:\n    pass\nexcept Exception:\n    pass\n",
        ),
        "R008": (
            "repro/sim/x.py",
            "import time\ntime.sleep(1.0)\n",
        ),
    }

    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_rule_fires(self, rule_id, tmp_path):
        rel, source = self.FIXTURES[rule_id]
        _write_tree(tmp_path, {rel: source})
        diags = _lint(tmp_path, rule_id)
        assert diags, f"{rule_id} produced no findings on its fixture"
        assert all(d.rule_id == rule_id for d in diags)
