"""The shipped checker registry, in stable diagnostic order."""

from __future__ import annotations

from typing import Dict, List

from ..core import Checker
from .obs_gating import ObsGating
from .cancel_checkpoint import CancelCheckpoint
from .cost_constants import CostConstants
from .lock_discipline import LockDiscipline
from .fault_gating import FaultGating
from .store_mutation import StoreMutation
from .snapshot_in_loop import SnapshotInLoop
from .op_call_in_loop import OpCallInLoop

__all__ = ["all_checkers", "checkers_by_id",
           "ObsGating", "CancelCheckpoint", "CostConstants",
           "LockDiscipline", "FaultGating", "StoreMutation",
           "SnapshotInLoop", "OpCallInLoop"]


def all_checkers() -> List[Checker]:
    """Fresh instances of every shipped checker (registration order)."""
    return [ObsGating(), CancelCheckpoint(), CostConstants(),
            LockDiscipline(), FaultGating(), StoreMutation(),
            SnapshotInLoop(), OpCallInLoop()]


def checkers_by_id() -> Dict[str, Checker]:
    return {c.rule_id: c for c in all_checkers()}
