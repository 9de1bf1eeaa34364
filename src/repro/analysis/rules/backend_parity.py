"""RJ013: kernel backend parity.

The kernel layer's contract (:mod:`repro.kernels.dispatch`) is that
alternative backends are *accelerations of one semantic*: every op the
numpy reference backend implements must exist on every other
registered backend with the same signature, or the parity property
tests cannot even dispatch to it and ``REPRO_KERNEL_BACKEND=numba``
silently falls back mid-pipeline.  A per-file linter cannot state
this: the reference and the JIT backend live in different modules.

Using the project index, the rule finds every subclass of
``KernelBackend``, takes the one whose ``name`` class attribute is
``"numpy"`` as the reference, and checks each sibling backend defined
in the file under analysis:

* every public method of the reference must exist on the sibling
  (missing op -> ERROR at the sibling class);
* parameter name lists must match exactly, ``self`` excluded
  (signature drift -> ERROR at the sibling method);
* a public method on a sibling that the reference lacks is reported
  at WARNING severity — it is unreachable through the dispatch
  contract and likely dead or divergent;
* the dispatch contract's **required ops** (:data:`REQUIRED_OPS` —
  the primitives the hw facades call unconditionally: the stacked
  correlator pass and the energy moving sums) must exist on the reference
  backend itself (missing required op -> ERROR at the reference
  class).  This leg runs only against the real
  ``repro.kernels.dispatch`` base, not fixture stand-ins, so small
  test projects can model the rule without carrying the full op set.

An op that intentionally has no counterpart carries a scoped
``# repro-lint: disable=RJ013`` on the backend class or method line.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.engine import FileContext, Finding, ProjectRule
from repro.analysis.findings import Severity
from repro.analysis.project import ClassInfo, ProjectContext

#: The dispatch registry's reference backend ``name`` attribute.
REFERENCE_BACKEND_NAME = "numpy"

#: Ops every registered backend must implement: the primitives the hw
#: facades dispatch to unconditionally.  Enforced on the reference
#: backend (the sibling checks then propagate them everywhere).
REQUIRED_OPS = ("moving_sums", "xcorr_metric_stacked")

_DISPATCH_BASE = "repro.kernels.dispatch:KernelBackend"


def _backend_classes(project: ProjectContext) -> list[ClassInfo]:
    cached = project.cache.get("rj013.backends")
    if cached is None:
        if _DISPATCH_BASE in project.classes:
            base_qualname = _DISPATCH_BASE
        else:
            # Fixture projects: accept any class literally named
            # KernelBackend as the dispatch base.
            base_qualname = next(
                (qualname for qualname, klass in project.classes.items()
                 if klass.name == "KernelBackend"), None)
        cached = project.subclasses_of(base_qualname) \
            if base_qualname is not None else []
        project.cache["rj013.backends"] = cached
    return cached  # type: ignore[return-value]


def _public_ops(klass: ClassInfo) -> dict[str, list[str]]:
    """Public method name -> parameter names (``self`` excluded)."""
    ops = {}
    for name, method in klass.methods.items():
        if name.startswith("_"):
            continue
        params = method.params
        if params and params[0] == "self":
            params = params[1:]
        ops[name] = list(params)
    return ops


class BackendParityRule(ProjectRule):
    """RJ013: every numpy-backend op has a matching sibling op."""

    code = "RJ013"
    name = "kernel-backend-parity"
    description = (
        "every op on the numpy reference KernelBackend must exist on "
        "every other backend with a matching signature (or carry an "
        "explicit RJ013 exemption); extra backend-only ops are "
        "unreachable through dispatch and reported as warnings"
    )

    def check_project(self, ctx: FileContext,
                      project: ProjectContext) -> Iterator[Finding]:
        if not ctx.is_src:
            return
        backends = _backend_classes(project)
        if not backends:
            return
        reference = next(
            (klass for klass in backends
             if klass.class_attrs.get("name") == REFERENCE_BACKEND_NAME),
            None)
        if reference is None:
            return
        reference_ops = _public_ops(reference)
        module = project.module_for(ctx.posix_path)
        if module is None:
            return
        if _DISPATCH_BASE in project.classes \
                and any(klass.qualname == reference.qualname
                        for klass in module.classes.values()):
            for op in REQUIRED_OPS:
                if op not in reference_ops:
                    yield self.finding(
                        ctx, reference.node,
                        f"reference backend '{reference.name}' is missing "
                        f"required dispatch op {op}(); the hw facades "
                        "call it unconditionally on every backend",
                    )
        for klass in module.classes.values():
            if klass.qualname == reference.qualname:
                continue
            if all(klass.qualname != backend.qualname
                   for backend in backends):
                continue
            yield from self._check_backend(ctx, klass, reference,
                                           reference_ops)

    def _check_backend(self, ctx: FileContext, klass: ClassInfo,
                       reference: ClassInfo,
                       reference_ops: dict[str, list[str]]
                       ) -> Iterator[Finding]:
        ops = _public_ops(klass)
        for op, params in sorted(reference_ops.items()):
            if op not in ops:
                yield self.finding(
                    ctx, klass.node,
                    f"backend '{klass.name}' has no counterpart for "
                    f"reference op {reference.name}.{op}(); implement "
                    "it or exempt the op with a scoped "
                    "'# repro-lint: disable=RJ013'",
                )
            elif ops[op] != params:
                yield self.finding(
                    ctx, klass.methods[op].node,
                    f"backend op {klass.name}.{op}({', '.join(ops[op])}) "
                    f"does not match the reference signature "
                    f"{reference.name}.{op}({', '.join(params)}); "
                    "dispatch passes identical arguments to every "
                    "backend",
                )
        for op in sorted(set(ops) - set(reference_ops)):
            yield self.finding(
                ctx, klass.methods[op].node,
                f"backend op {klass.name}.{op}() has no reference "
                f"counterpart on {reference.name}; it is unreachable "
                "through the dispatch contract",
                severity=Severity.WARNING,
            )
