"""Plan objects: every GraphBLAS call described before it is executed.

A :class:`Plan` is a small declarative record — which operation, which
operands, what mask/accumulator/descriptor bits, which output target — that
the rule registry (:mod:`repro.grb.engine.rules`) routes to a kernel
strategy.  Building a plan does no work beyond dimension checks; executing
it (:func:`repro.grb.engine.execute`) is where kernels run.

Epilogue fusion
---------------
``then_apply`` / ``then_select`` / ``then_reduce_rowwise`` /
``then_reduce_scalar`` append *epilogues*: consumers of the producing
kernel's result that run inside its output pass, on the raw
``(keys, values)`` arrays, instead of materialising an intermediate
matrix/vector first (GraphBLAS non-blocking-mode fusion, scoped to
single-consumer chains).  With :data:`repro.grb.engine.cost.FUSION_ENABLED`
switched off, the same plan decomposes into the seed sequence —
intermediates materialised between stages — which is the bit-identity
reference and the ablation baseline.

A plan whose ``out`` is ``None`` returns its result raw — ``(keys, values)``
arrays, or a scalar after ``then_reduce_scalar`` — letting algorithm hot
loops consume kernel output without an intermediate object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import DimensionMismatch, InvalidValue
from ..mask import Mask, as_mask

__all__ = [
    "Epilogue", "Plan",
    "plan_mxm", "plan_mxv", "plan_vxm", "plan_ewise_add", "plan_ewise_mult",
    "plan_apply", "plan_select", "plan_assign", "plan_assign_scalar",
    "plan_update",
]


@dataclass(frozen=True)
class Epilogue:
    """One fused consumer of a producing kernel's output pass.

    ``kind`` is ``"apply"`` (UnaryOp over the values), ``"select"``
    (SelectOp predicate dropping entries), ``"reduce_rowwise"`` (Monoid
    reduction to per-row values) or ``"reduce_scalar"`` (Monoid reduction to
    one scalar, optionally over ``|values|``).
    """

    kind: str
    op: object = None
    thunk: object = None
    absolute: bool = False


@dataclass
class Plan:
    """A described-but-not-yet-executed GraphBLAS call.

    Attributes
    ----------
    op:
        Operation kind (``"mxm"``, ``"mxv"``, ``"vxm"``, ``"ewise_add"``,
        ``"ewise_mult"``, ``"apply"``, ``"select"``, ``"assign"``,
        ``"assign_scalar"``, ``"update"``).
    out:
        Output object, or ``None`` to return raw arrays / a scalar.
    args:
        Operand tuple (operation-specific; see the builders).
    operator:
        The Semiring / BinaryOp / UnaryOp / SelectOp / scalar payload.
    mask, accum, replace:
        The write-back transaction parameters (mask already normalised).
        Raw-output plans (``out=None``) have no write-back, so builders
        reject ``accum``/``replace`` there; a mask instead restricts the
        computed result itself.
    transpose_b:
        Descriptor-style B-operand transposition (mxm only;
        ``transpose_a`` is folded into the operand by the builder).
    epilogues:
        Fused consumers, applied in order to the kernel's output arrays.
    meta:
        Planner scratch: rules that *decline* a plan leave their decision
        detail here so the eventual decision record carries it (e.g. the
        masked-mxm chooser's probe and flop counts survive into the
        fallback rule's record).  Keys starting with ``_`` are private
        bookkeeping (builder operands, rule work arrays) and never reach
        decision records.
    """

    op: str
    out: object
    args: tuple
    operator: object
    mask: Optional[Mask] = None
    accum: object = None
    replace: bool = False
    transpose_b: bool = False
    epilogues: Tuple[Epilogue, ...] = ()
    meta: dict = field(default_factory=dict)

    # -- fused-chain construction ---------------------------------------
    def _with(self, epilogue: Epilogue) -> "Plan":
        # built directly, not via ``dataclasses.replace`` (about 4x
        # slower): algorithm level loops chain an epilogue per dispatch
        return Plan(self.op, self.out, self.args, self.operator, self.mask,
                    self.accum, self.replace, self.transpose_b,
                    self.epilogues + (epilogue,), dict(self.meta))

    def then_apply(self, op, thunk=None) -> "Plan":
        """Fuse ``apply(op)`` onto this plan's output pass."""
        return self._with(Epilogue("apply", op, thunk))

    def then_select(self, op, thunk=None) -> "Plan":
        """Fuse ``select(op, thunk)`` onto this plan's output pass."""
        return self._with(Epilogue("select", op, thunk))

    def then_reduce_rowwise(self, monoid) -> "Plan":
        """Fuse a per-row reduction; the plan then yields ``(rows, vals)``."""
        return self._with(Epilogue("reduce_rowwise", monoid))

    def then_reduce_scalar(self, monoid, absolute: bool = False) -> "Plan":
        """Fuse a scalar reduction (optionally of ``|values|``); the plan
        then yields a scalar and performs no write-back."""
        return self._with(Epilogue("reduce_scalar", monoid,
                                   absolute=absolute))

    # -- introspection ---------------------------------------------------
    @property
    def mask_kind(self) -> str:
        """``"none"`` / ``"structural"`` / ``"valued"``, with a
        ``"complement-"`` prefix when complemented."""
        m = self.mask
        if m is None:
            return "none"
        kind = "structural" if m.structural else "valued"
        return f"complement-{kind}" if m.complemented else kind

    def describe(self) -> dict:
        """Compact decision-record payload describing the call shape."""
        opname = getattr(self.operator, "name", None)
        return {
            "op": self.op,
            "operator": opname,
            "mask_kind": self.mask_kind,
            "accum": getattr(self.accum, "name", None),
            "replace": self.replace,
            "fused": len(self.epilogues),
        }


def _check(cond: bool, msg: str):
    if not cond:
        raise DimensionMismatch(msg)


def _check_raw(op: str, out, accum, replace: bool):
    """Raw-output plans (``out=None``) have no write-back to honour an
    accumulator or replace flag — reject them rather than silently
    dropping the semantics."""
    if out is None and (accum is not None or replace):
        raise InvalidValue(
            f"{op}: accum/replace require an output object (out=None "
            f"plans return the raw result with no write-back)")


# ---------------------------------------------------------------------------
# builders (dimension checks happen here, once, whatever executes later)
# ---------------------------------------------------------------------------

def plan_mxm(c, a, b, semiring, *, mask=None, accum=None, replace=False,
             transpose_a=False, transpose_b=False) -> Plan:
    """``C⟨M⟩⊙= A ⊕.⊗ B`` (``transpose_a`` already folded by the caller
    keeps the planner simple: rules see it resolved)."""
    if transpose_a:
        a = a.T
    bn_rows = b.ncols if transpose_b else b.nrows
    bn_cols = b.nrows if transpose_b else b.ncols
    _check(a.ncols == bn_rows, f"mxm: A.ncols {a.ncols} != B.nrows {bn_rows}")
    if c is not None:
        _check(c.nrows == a.nrows and c.ncols == bn_cols,
               f"mxm: C shape {c.shape} != ({a.nrows}, {bn_cols})")
    _check_raw("mxm", c, accum, replace)
    return Plan("mxm", c, (a, b), semiring, mask=as_mask(mask), accum=accum,
                replace=replace, transpose_b=transpose_b,
                meta={"_bn_cols": bn_cols})


def plan_mxv(w, a, u, semiring, *, mask=None, accum=None,
             replace=False) -> Plan:
    """``w⟨m⟩⊙= A ⊕.⊗ u`` — the "pull" direction."""
    _check(u.size == a.ncols, f"mxv: u.size {u.size} != A.ncols {a.ncols}")
    if w is not None:
        _check(w.size == a.nrows, f"mxv: w.size {w.size} != A.nrows {a.nrows}")
    _check_raw("mxv", w, accum, replace)
    return Plan("mxv", w, (a, u), semiring, mask=as_mask(mask), accum=accum,
                replace=replace)


def plan_vxm(w, u, a, semiring, *, mask=None, accum=None,
             replace=False) -> Plan:
    """``wᵀ⟨mᵀ⟩⊙= uᵀ ⊕.⊗ A`` — the "push" direction."""
    _check(u.size == a.nrows, f"vxm: u.size {u.size} != A.nrows {a.nrows}")
    if w is not None:
        _check(w.size == a.ncols, f"vxm: w.size {w.size} != A.ncols {a.ncols}")
    _check_raw("vxm", w, accum, replace)
    return Plan("vxm", w, (u, a), semiring, mask=as_mask(mask), accum=accum,
                replace=replace)


def _is_vector(x) -> bool:
    return hasattr(x, "size") and not hasattr(x, "nrows")


def _plan_ewise(kind, out, a, b, op, mask, accum, replace) -> Plan:
    if _is_vector(a):
        a._check_same_size(b)
        if out is not None:
            _check(out.size == a.size, f"{kind}: output size mismatch")
    else:
        a._check_same_shape(b)
        if out is not None:
            _check(out.shape == a.shape, f"{kind}: output shape mismatch")
    _check_raw(kind, out, accum, replace)
    return Plan(kind, out, (a, b), op, mask=as_mask(mask), accum=accum,
                replace=replace)


def plan_ewise_add(out, a, b, op, *, mask=None, accum=None,
                   replace=False) -> Plan:
    """``C⟨M⟩⊙= A op∪ B`` (union of structures; op only on the overlap)."""
    return _plan_ewise("ewise_add", out, a, b, op, mask, accum, replace)


def plan_ewise_mult(out, a, b, op, *, mask=None, accum=None,
                    replace=False) -> Plan:
    """``C⟨M⟩⊙= A op∩ B`` (intersection of structures)."""
    return _plan_ewise("ewise_mult", out, a, b, op, mask, accum, replace)


def plan_apply(out, src, op, thunk=None, *, mask=None, accum=None,
               replace=False) -> Plan:
    """``C⟨M⟩⊙= f(A, k)``."""
    _check_raw("apply", out, accum, replace)
    return Plan("apply", out, (src,), op, mask=as_mask(mask), accum=accum,
                replace=replace, meta={"_thunk": thunk})


def plan_select(out, src, op, thunk=None, *, mask=None, accum=None,
                replace=False) -> Plan:
    """``C⟨M⟩⊙= A⟨f(A, k)⟩``."""
    _check_raw("select", out, accum, replace)
    return Plan("select", out, (src,), op, mask=as_mask(mask), accum=accum,
                replace=replace, meta={"_thunk": thunk})


def plan_update(out, t, *, mask=None, accum=None, replace=False) -> Plan:
    """``C⟨M⟩⊙= T``: write an already-computed object through the mask.

    The plan form of :func:`repro.grb.operations.update` (the
    ``p⟨s(q)⟩ = q`` step of the BFS level), claimed by ``update-write``."""
    if _is_vector(t):
        _check(out.size == t.size, "update: size mismatch")
    else:
        _check(out.shape == t.shape, "update: shape mismatch")
    return Plan("update", out, (t,), None, mask=as_mask(mask), accum=accum,
                replace=replace)


def plan_assign(w, u, indices=None, *, mask=None, accum=None,
                replace=False) -> Plan:
    """``w⟨m⟩(i)⊙= u`` — assign into a sub-range (``None`` = GrB_ALL)."""
    return Plan("assign", w, (u,), None, mask=as_mask(mask), accum=accum,
                replace=replace, meta={"_indices": indices})


def plan_assign_scalar(w, value, indices=None, *, mask=None, accum=None,
                       replace=False) -> Plan:
    """``w⟨m⟩(i)⊙= s`` — scalar assign to a sub-range (or everywhere)."""
    return Plan("assign_scalar", w, (), value, mask=as_mask(mask),
                accum=accum, replace=replace, meta={"_indices": indices})
