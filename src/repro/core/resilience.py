"""Fault-tolerant CG driving: checkpointed restart, retry, device failover.

The paper's multi-GPU execution model (§III-C5/§III-D) statically splits
the feature dimension across devices and assumes every device survives the
whole solve. This module relaxes that assumption for the simulated
execution layer:

* a :class:`~repro.exceptions.TransientDeviceError` (a recoverable hiccup —
  an ECC retry, a watchdog reset) is retried with bounded exponential
  backoff, resuming from the solver's last
  :class:`~repro.core.cg.CGCheckpoint` rather than iteration 0;
* a :class:`~repro.exceptions.DeviceLostError` (the card is gone) triggers
  *graceful degradation*: the ``handle_device_loss`` hook of the
  operator's modeled devices re-runs the feature-wise split over the
  surviving devices, re-uploads the data slabs, and the solve resumes
  from the last checkpoint on the shrunken device set.

Because the checkpoint captures the complete recurrence state, a recovered
solve converges to the same solution an undisturbed solve produces, bit
for bit when the surviving operator computes identical partial sums. The
device backends' operator always does: their device split is modeled
(:mod:`repro.backends.modeled`), never part of the arithmetic.

All recovery activity is reported through the active
:class:`repro.telemetry.TelemetryContext`: the familiar counters
(``devices_lost``, ``redistributions``, ``checkpoint_restores``,
``transient_retries``, ``backoff_seconds``) plus one audit-log entry per
event, so a fit's ``report_`` carries the full fault/recovery timeline.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from ..exceptions import DeviceLostError, InvalidParameterError, TransientDeviceError
from ..telemetry.context import current_context
from .cg import (
    BlockCGResult,
    CGCheckpoint,
    CGResult,
    LinearOperatorLike,
    conjugate_gradient,
    conjugate_gradient_block,
)

__all__ = ["resilient_solve", "DEFAULT_CHECKPOINT_INTERVAL"]

#: Checkpoint cadence used when the caller enables resilience without
#: choosing one. Snapshots are cheap (a few dense vectors), so a tight
#: cadence loses little and bounds replayed work to 10 iterations.
DEFAULT_CHECKPOINT_INTERVAL = 10


def _recover_device_loss(A, exc: DeviceLostError) -> None:
    """Redistribute work away from the device named in ``exc``.

    Delegates to the ``handle_device_loss`` hook of the operator's
    attached modeled devices (``A.cost``), or of the operator itself, which
    returns how many devices took the work over; re-raises when there is
    no hook (plain NumPy operators cannot lose devices — if they raise
    ``DeviceLostError`` something is wired wrong) or the error does not
    identify a device. Cascading losses — another device dying *during*
    redistribution — are handled by recovering again, until no devices
    remain.
    """
    ctx = current_context()
    cost = getattr(A, "cost", None)
    handler = getattr(A if cost is None else cost, "handle_device_loss", None)
    while True:
        if handler is None or exc.device is None:
            raise exc
        ctx.inc("devices_lost")
        ctx.record_fault_event(
            "device_lost",
            device=getattr(exc.device, "name", str(exc.device)),
            message=str(exc),
        )
        try:
            survivors = handler(exc.device)
        except DeviceLostError as cascade:
            if cascade.device is None or cascade.device is exc.device:
                raise
            exc = cascade
            continue
        ctx.inc("redistributions")
        ctx.record_fault_event("redistribution", survivors=survivors)
        return


def resilient_solve(
    A: Union[np.ndarray, LinearOperatorLike],
    b: np.ndarray,
    *,
    max_retries: int = 3,
    backoff_base_s: float = 0.05,
    backoff_factor: float = 2.0,
    checkpoint_interval: Optional[int] = DEFAULT_CHECKPOINT_INTERVAL,
    sleep: Optional[Callable[[float], None]] = None,
    **solver_kwargs,
) -> Union[CGResult, BlockCGResult]:
    """Solve ``A @ x = b`` by CG, surviving injected device faults.

    A thin driver around :func:`~repro.core.cg.conjugate_gradient` (1-D
    ``b``) or :func:`~repro.core.cg.conjugate_gradient_block` (2-D ``b``):
    the solver runs with checkpointing enabled, and whenever a device fault
    escapes, the driver recovers and re-enters the solver from the last
    checkpoint.

    Parameters
    ----------
    A, b:
        As for the underlying solver.
    max_retries:
        Consecutive unproductive transient-fault retries tolerated before
        the fault is promoted to a :class:`~repro.exceptions.DeviceLostError`.
        The budget resets whenever a retry makes progress (the checkpoint
        iteration advanced), so long solves under a constant low fault rate
        still finish.
    backoff_base_s / backoff_factor:
        Exponential backoff schedule for transient faults: attempt ``i``
        (0-based within a no-progress streak) waits
        ``backoff_base_s * backoff_factor**i`` seconds. The delay is always
        accounted in the ``backoff_seconds`` telemetry counter; it is actually
        slept only when a ``sleep`` callable is given — the default
        ``None`` suits simulated hardware, where wall-clock waiting buys
        nothing.
    checkpoint_interval:
        Forwarded to the solver (default
        :data:`DEFAULT_CHECKPOINT_INTERVAL`); ``None`` disables
        checkpointing, making every recovery restart from iteration 0.
    sleep:
        Optional ``sleep(seconds)`` used to realize backoff delays (e.g.
        ``time.sleep`` on real hardware).
    **solver_kwargs:
        Passed through to the underlying solver (``epsilon``, ``max_iter``,
        ``preconditioner``, ...).

    Returns
    -------
    :class:`~repro.core.cg.CGResult` or :class:`~repro.core.cg.BlockCGResult`
        Whatever the underlying solver returns.

    Raises
    ------
    DeviceLostError
        When recovery is impossible: the operator has no
        ``handle_device_loss`` hook, no devices survive, or transient
        faults persist past ``max_retries`` without progress.
    """
    if max_retries < 0:
        raise InvalidParameterError(f"max_retries must be >= 0, got {max_retries}")
    if backoff_base_s < 0:
        raise InvalidParameterError("backoff_base_s must be non-negative")
    if backoff_factor < 1.0:
        raise InvalidParameterError("backoff_factor must be >= 1")

    b_arr = np.asarray(b)
    if b_arr.ndim <= 1:
        solver = conjugate_gradient
    else:
        solver = conjugate_gradient_block

    ctx = current_context()
    ckpt: Optional[CGCheckpoint] = None
    transient_streak = 0
    while True:
        try:
            return solver(
                A,
                b,
                checkpoint_interval=checkpoint_interval,
                checkpoint=ckpt,
                **solver_kwargs,
            )
        except TransientDeviceError as exc:
            new_ckpt = exc.checkpoint
            progressed = new_ckpt is not None and (
                ckpt is None or new_ckpt.iteration > ckpt.iteration
            )
            ckpt = new_ckpt if new_ckpt is not None else ckpt
            transient_streak = 0 if progressed else transient_streak + 1
            if transient_streak > max_retries:
                raise DeviceLostError(
                    f"transient faults persisted after {max_retries} retries "
                    f"without progress: {exc}",
                    device=exc.device,
                ) from exc
            delay = backoff_base_s * backoff_factor ** max(transient_streak - 1, 0)
            ctx.inc("transient_retries")
            ctx.inc("backoff_seconds", delay)
            ctx.record_fault_event(
                "transient_retry",
                device=getattr(exc.device, "name", None),
                streak=transient_streak,
                backoff_s=delay,
                progressed=progressed,
                message=str(exc),
            )
            if sleep is not None and delay > 0:
                sleep(delay)
        except DeviceLostError as exc:
            if exc.checkpoint is not None:
                ckpt = exc.checkpoint
            _recover_device_loss(A, exc)
            transient_streak = 0
        if ckpt is not None:
            ctx.inc("checkpoint_restores")
            ctx.record_fault_event("checkpoint_restore", iteration=ckpt.iteration)
