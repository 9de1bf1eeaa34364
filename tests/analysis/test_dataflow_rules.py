"""The whole-program rules: RJ010-RJ012, firing and non-firing.

Each rule gets both directions — the seeded violation it must catch
and the nearby legitimate idiom it must stay silent on — plus a
regression corpus: a float injected into the xcorr path across a call
boundary, an unseeded RNG in a sweep helper, and an unpaired telemetry
span.
"""

from __future__ import annotations

from repro.analysis import analyze_sources, get_rule


def _run(files: dict[str, str], code: str):
    return analyze_sources(files, rules=[get_rule(code)])


FUT = "from __future__ import annotations\n"


class TestDtypeFlowRJ010:
    def test_local_int_widened_by_float_literal(self):
        findings = _run({
            "src/repro/dsp/acc.py": FUT + (
                "def f(xs):\n"
                "    acc = 0\n"
                "    for x in xs:\n"
                "        acc = acc + x * 0.5\n"
                "    return acc\n"
            ),
        }, "RJ010")
        assert [f.rule for f in findings] == ["RJ010"]
        assert findings[0].line == 5

    def test_float_crosses_call_boundary_into_int_state(self):
        # The issue's regression seed: a helper returns float, the
        # caller augments integer xcorr state with it.  Per-file
        # analysis cannot see this; the project summaries can.
        findings = _run({
            "src/repro/dsp/scalefn.py": FUT + (
                "def scale(x):\n"
                "    return x * 0.5\n"
            ),
            "src/repro/kernels/xcorr_acc.py": FUT + (
                "from repro.dsp.scalefn import scale\n"
                "def accumulate(xs):\n"
                "    energy = 0\n"
                "    for x in xs:\n"
                "        energy += scale(x)\n"
                "    return energy\n"
            ),
        }, "RJ010")
        assert [(f.rule, f.path) for f in findings] == [
            ("RJ010", "src/repro/kernels/xcorr_acc.py")]

    def test_float_argument_into_int_annotated_param(self):
        findings = _run({
            "src/repro/hw/quant.py": FUT + (
                "def write_field(value: int):\n"
                "    return value\n"
                "def stage(raw):\n"
                "    return write_field(raw * 0.125)\n"
            ),
        }, "RJ010")
        assert [f.rule for f in findings] == ["RJ010"]

    def test_int_annotated_return_of_float_value(self):
        findings = _run({
            "src/repro/hw/quant.py": FUT + (
                "def metric(x) -> int:\n"
                "    return x / 2\n"
            ),
        }, "RJ010")
        assert [f.rule for f in findings] == ["RJ010"]

    def test_self_attr_established_int_then_widened(self):
        findings = _run({
            "src/repro/hw/state.py": FUT + (
                "class Detector:\n"
                "    def __init__(self):\n"
                "        self.energy = 0\n"
                "    def step(self, x):\n"
                "        self.energy = self.energy + x * 0.5\n"
            ),
        }, "RJ010")
        assert [f.rule for f in findings] == ["RJ010"]

    def test_explicit_cast_is_silent(self):
        # The exemption covers a spelled-out cast as the assigned
        # value; after it the variable is float and later float math
        # is no longer a widening.
        findings = _run({
            "src/repro/dsp/host.py": FUT + (
                "def f(xs):\n"
                "    acc = 0\n"
                "    acc = float(acc)\n"
                "    acc = acc * 0.5\n"
                "    return acc\n"
            ),
        }, "RJ010")
        assert findings == []

    def test_outside_bit_exact_packages_is_silent(self):
        findings = _run({
            "src/repro/experiments/plot.py": FUT + (
                "def f(xs):\n"
                "    acc = 0\n"
                "    acc = acc + 0.5\n"
                "    return acc\n"
            ),
        }, "RJ010")
        assert findings == []

    def test_unknown_dtypes_stay_silent(self):
        findings = _run({
            "src/repro/dsp/opaque.py": FUT + (
                "def f(xs, g):\n"
                "    acc = 0\n"
                "    acc = acc + g(xs)\n"
                "    return acc\n"
            ),
        }, "RJ010")
        assert findings == []


class TestDeterminismRJ011:
    def test_unseeded_rng_in_reachable_helper(self):
        # The issue's regression seed: the helper lives far from the
        # sweep, but the call graph connects them.
        findings = _run({
            "src/repro/runtime/sweepx.py": FUT + (
                "from repro.util.noisex import make_noise\n"
                "def run_sweep(grid):\n"
                "    return [make_noise(8) for _ in grid]\n"
            ),
            "src/repro/util/noisex.py": FUT + (
                "from numpy.random import default_rng\n"
                "def make_noise(n):\n"
                "    rng = default_rng()\n"
                "    return rng.normal(size=n)\n"
            ),
        }, "RJ011")
        assert [(f.rule, f.path) for f in findings] == [
            ("RJ011", "src/repro/util/noisex.py")]

    def test_seeded_rng_from_argument_is_silent(self):
        findings = _run({
            "src/repro/runtime/sweepx.py": FUT + (
                "from numpy.random import default_rng\n"
                "def run_trial(seed):\n"
                "    rng = default_rng(seed)\n"
                "    return rng.normal()\n"
            ),
        }, "RJ011")
        assert findings == []

    def test_hardcoded_seed_is_a_warning(self):
        findings = _run({
            "src/repro/runtime/sweepx.py": FUT + (
                "from numpy.random import default_rng\n"
                "def run_trial(n):\n"
                "    rng = default_rng(1234)\n"
                "    return rng.normal(size=n)\n"
            ),
        }, "RJ011")
        assert [f.rule for f in findings] == ["RJ011"]
        assert findings[0].severity.value == "warning"

    def test_legacy_np_random_on_sweep_path(self):
        findings = _run({
            "src/repro/experiments/grid.py": FUT + (
                "import numpy as np\n"
                "def sample(n):\n"
                "    return np.random.normal(size=n)\n"
            ),
        }, "RJ011")
        assert [f.rule for f in findings] == ["RJ011"]

    def test_stdlib_random_on_sweep_path(self):
        findings = _run({
            "src/repro/experiments/grid.py": FUT + (
                "import random\n"
                "def pick_trial(xs):\n"
                "    return random.choice(xs)\n"
            ),
        }, "RJ011")
        assert [f.rule for f in findings] == ["RJ011"]

    def test_unreachable_helper_is_silent(self):
        findings = _run({
            "src/repro/util/noisex.py": FUT + (
                "from numpy.random import default_rng\n"
                "def make_noise(n):\n"
                "    rng = default_rng()\n"
                "    return rng.normal(size=n)\n"
            ),
        }, "RJ011")
        assert findings == []

    def test_module_level_rng_always_flagged(self):
        findings = _run({
            "src/repro/util/consts.py": FUT + (
                "from numpy.random import default_rng\n"
                "JITTER = default_rng().normal()\n"
            ),
        }, "RJ011")
        assert [f.rule for f in findings] == ["RJ011"]

    def test_non_src_files_are_exempt(self):
        findings = _run({
            "tests/util/test_noise.py": (
                "from numpy.random import default_rng\n"
                "def test_sweep_noise():\n"
                "    assert default_rng().normal() is not None\n"
            ),
        }, "RJ011")
        assert findings == []

    def test_defense_modules_are_entry_points(self):
        # Detector training and tournaments carry the same
        # byte-identity guarantee as figure sweeps: any function under
        # defense/ roots the reachability walk.
        findings = _run({
            "src/repro/defense/detectorx.py": FUT + (
                "from repro.util.noisex import make_noise\n"
                "def fit_model(n):\n"
                "    return make_noise(n)\n"
            ),
            "src/repro/util/noisex.py": FUT + (
                "from numpy.random import default_rng\n"
                "def make_noise(n):\n"
                "    rng = default_rng()\n"
                "    return rng.normal(size=n)\n"
            ),
        }, "RJ011")
        assert [(f.rule, f.path) for f in findings] == [
            ("RJ011", "src/repro/util/noisex.py")]

    def test_tournament_named_functions_are_entry_points(self):
        findings = _run({
            "src/repro/apps/defendx.py": FUT + (
                "from numpy.random import default_rng\n"
                "def run_tournament(grid):\n"
                "    rng = default_rng()\n"
                "    return [rng.normal() for _ in grid]\n"
            ),
        }, "RJ011")
        assert [f.rule for f in findings] == ["RJ011"]


class TestSpanPairingRJ012:
    PROFILER = FUT + (
        "from contextlib import contextmanager\n"
        "@contextmanager\n"
        "def span_scope(name):\n"
        "    yield\n"
    )

    def test_discarded_contextmanager_call(self):
        # The issue's regression seed: the span is opened in the
        # author's head, never on the timeline.
        findings = _run({
            "src/repro/telemetry/prof.py": self.PROFILER,
            "src/repro/experiments/run.py": FUT + (
                "from repro.telemetry.prof import span_scope\n"
                "def run():\n"
                "    span_scope('xcorr')\n"
                "    return 1\n"
            ),
        }, "RJ012")
        assert [(f.rule, f.line) for f in findings] == [("RJ012", 4)]

    def test_with_statement_is_silent(self):
        findings = _run({
            "src/repro/telemetry/prof.py": self.PROFILER,
            "src/repro/experiments/run.py": FUT + (
                "from repro.telemetry.prof import span_scope\n"
                "def run():\n"
                "    with span_scope('xcorr'):\n"
                "        return 1\n"
            ),
        }, "RJ012")
        assert findings == []

    def test_bare_dot_profile_call_flagged_unresolved(self):
        findings = _run({
            "src/repro/experiments/run.py": FUT + (
                "def run(profiler):\n"
                "    profiler.profile('detect')\n"
                "    return 1\n"
            ),
        }, "RJ012")
        assert [f.rule for f in findings] == ["RJ012"]

    def test_ring_tracer_only_member_on_tracer_receiver(self):
        findings = _run({
            "src/repro/telemetry/tracer.py": FUT + (
                "class Tracer:\n"
                "    enabled = False\n"
                "    def instant(self, name):\n"
                "        pass\n"
                "    def span(self, name):\n"
                "        pass\n"
                "class RingTracer(Tracer):\n"
                "    def iter_category(self, cat):\n"
                "        return []\n"
            ),
            "src/repro/experiments/run.py": FUT + (
                "def dump(tracer):\n"
                "    return list(tracer.iter_category('dsp'))\n"
            ),
        }, "RJ012")
        assert [f.rule for f in findings] == ["RJ012"]

    def test_base_interface_member_is_silent(self):
        findings = _run({
            "src/repro/telemetry/tracer.py": FUT + (
                "class Tracer:\n"
                "    enabled = False\n"
                "    def instant(self, name):\n"
                "        pass\n"
                "class RingTracer(Tracer):\n"
                "    def iter_category(self, cat):\n"
                "        return []\n"
            ),
            "src/repro/experiments/run.py": FUT + (
                "def probe(tracer):\n"
                "    tracer.instant('hit')\n"
            ),
        }, "RJ012")
        assert findings == []

    def test_telemetry_package_is_exempt_from_surface_check(self):
        findings = _run({
            "src/repro/telemetry/tracer.py": FUT + (
                "class Tracer:\n"
                "    enabled = False\n"
                "    def instant(self, name):\n"
                "        pass\n"
                "class RingTracer(Tracer):\n"
                "    def iter_category(self, cat):\n"
                "        return []\n"
            ),
            "src/repro/telemetry/report.py": FUT + (
                "def dump(tracer):\n"
                "    return list(tracer.iter_category('dsp'))\n"
            ),
        }, "RJ012")
        assert findings == []
