"""RJ009: sliding-window DSP primitives live only in repro.kernels.

:mod:`repro.kernels` is the repo's single hot-path choke point: it owns
the fused sign-plane correlator, the batched moving-sum engine, and
the bit-exactness guarantees the detectors rely on.  A stray
``np.correlate`` / ``np.convolve`` / ``sliding_window_view``
elsewhere under ``src/`` re-grows the per-chunk Python overhead the
kernel package exists to eliminate, and silently escapes the
kernels' bit-exactness test net.

Code that needs a convolution should call
:func:`repro.kernels.ops.convolve`; correlation-style detection goes
through :func:`repro.kernels.xcorr_metric_stacked` and friends.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import FileContext, Finding, Rule

#: Path fragment allowed to use the raw primitives: the kernel
#: package itself.
ALLOWED_PATH_PARTS: tuple[str, ...] = ("/kernels/",)

#: Sliding-window primitives whose call sites must route through
#: :mod:`repro.kernels`.
PRIMITIVE_NAMES: frozenset[str] = frozenset({
    "correlate", "convolve", "sliding_window_view",
})


def _collect_imports(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names under which the DSP primitives are reachable.

    Returns ``(module_aliases, direct_names)``: local names bound to
    ``numpy`` or its submodules, and local names of from-imported
    primitives.
    """
    module_aliases: set[str] = set()
    direct_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" \
                        or alias.name.startswith("numpy."):
                    module_aliases.add(
                        alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "numpy" or module.startswith("numpy."):
                for alias in node.names:
                    if alias.name in PRIMITIVE_NAMES:
                        direct_names.add(alias.asname or alias.name)
                    else:
                        # e.g. `from numpy.lib import stride_tricks`
                        module_aliases.add(alias.asname or alias.name)
    return module_aliases, direct_names


class DspPrimitiveRule(Rule):
    """RJ009: raw sliding-window primitives only inside repro.kernels."""

    code = "RJ009"
    name = "raw-dsp-primitive"
    description = (
        "np.correlate / np.convolve / sliding_window_view may only be "
        "called under repro.kernels; route convolutions through "
        "repro.kernels.ops and detection math through the fused "
        "kernels so every call site inherits the one kernel "
        "implementation and its bit-exactness test net"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_src:
            return
        if any(part in ctx.posix_path for part in ALLOWED_PATH_PARTS):
            return
        module_aliases, direct_names = _collect_imports(ctx.tree)
        if not module_aliases and not direct_names:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            primitive: str | None = None
            if isinstance(func, ast.Name) and func.id in direct_names:
                primitive = func.id
            elif isinstance(func, ast.Attribute) \
                    and func.attr in PRIMITIVE_NAMES:
                owner = func.value
                # np.correlate(...), stride_tricks.sliding_window_view(...)
                if isinstance(owner, ast.Name) and owner.id in module_aliases:
                    primitive = f"{owner.id}.{func.attr}"
                # np.lib.stride_tricks.sliding_window_view(...)
                elif isinstance(owner, ast.Attribute):
                    root = owner
                    while isinstance(root, ast.Attribute):
                        root = root.value
                    if isinstance(root, ast.Name) \
                            and root.id in module_aliases:
                        primitive = f"...{func.attr}"
            if primitive is not None:
                yield self.finding(
                    ctx, node,
                    f"raw DSP primitive {primitive}() outside "
                    "repro.kernels; use repro.kernels.ops.convolve or "
                    "the fused kernel API so the call inherits the "
                    "one kernel implementation and its parity tests",
                )
