"""Multi-model registry: named models, warm-engine LRU, hot-swap reload.

A serving process fronts many models but cannot keep them all warm: each
warm :class:`~repro.serve.engine.PredictionEngine` pins the support-vector
matrix (possibly twice, with a ``compute_dtype`` cast) plus norms in
memory. The registry therefore separates the cheap part — *knowing* a
model (a name bound to a file path or an in-memory model object) — from
the expensive part — keeping its engine warm — and budgets only the
latter: a byte-budgeted LRU over warm engines, the same idiom as the
training side's :class:`~repro.core.tile_pipeline.TileCache` (evict
least-recently-used until the newcomer fits; an engine alone larger than
the whole budget is served cold-built but never retained).

Hot swap is generation-tagged: every (re)registration bumps the name's
generation, and :meth:`get` hands out a warm engine only when its
generation matches the current registration — a reloaded model can never
be served from the stale engine, while requests already in flight on the
old engine object finish undisturbed (engines are immutable).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.model import MODEL_TYPES, LSSVMModel, load_model
from ..exceptions import InvalidParameterError, ModelNotFoundError
from .engine import PredictionEngine

__all__ = ["ModelRegistry", "DEFAULT_REGISTRY_MB"]

#: Default byte budget for warm engines (MiB) — roughly forty 4096x64
#: float64 models; tune with ``ModelRegistry(budget_mb=...)``.
DEFAULT_REGISTRY_MB = 512.0


class _Registration:
    """One name's current source and generation."""

    __slots__ = ("source", "generation")

    def __init__(self, source: Union[str, Path, LSSVMModel, "FeatureMapModel"], generation: int) -> None:
        self.source = source
        self.generation = generation


class _InFlight:
    """Singleflight ticket for one cold load in progress.

    The loader builds the engine *outside* the registry lock and then
    publishes it here; concurrent misses for the same (name, generation)
    wait on ``event`` instead of duplicating the load — and, crucially,
    instead of serializing every *other* model's warm hits behind the
    disk read.
    """

    __slots__ = ("generation", "event", "engine", "error")

    def __init__(self, generation: int) -> None:
        self.generation = generation
        self.event = threading.Event()
        self.engine: Optional[PredictionEngine] = None
        self.error: Optional[BaseException] = None


class ModelRegistry:
    """Named models with a byte-budgeted LRU of warm engines.

    Parameters
    ----------
    budget_mb:
        Byte budget (MiB) for *warm engines* (not registrations, which
        are a name and a path). ``0`` keeps nothing warm — every ``get``
        builds a throwaway engine, which still works but forfeits the
        amortization.
    solver_threads / compute_dtype:
        Forwarded to every engine built by this registry.
    """

    def __init__(
        self,
        *,
        budget_mb: float = DEFAULT_REGISTRY_MB,
        solver_threads: Optional[int] = None,
        compute_dtype=None,
    ) -> None:
        if budget_mb < 0:
            raise InvalidParameterError("budget_mb must be non-negative")
        self.budget_bytes = int(budget_mb * 1024 * 1024)
        self._engine_kwargs = {
            "solver_threads": solver_threads,
            "compute_dtype": compute_dtype,
        }
        self._registrations: Dict[str, _Registration] = {}
        self._warm: "OrderedDict[str, PredictionEngine]" = OrderedDict()
        self._warm_bytes = 0
        self._loading: Dict[str, _InFlight] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.oversized = 0
        self.reloads = 0

    # -- registration ---------------------------------------------------------

    def register(self, name: str, source: Union[str, Path, LSSVMModel, "FeatureMapModel"]) -> int:
        """Bind ``name`` to a model file path or an in-memory model.

        Re-registering an existing name is the hot-swap path: the
        generation is bumped and any warm engine of the old generation is
        dropped, so the next request is served by the new model. Returns
        the new generation.

        In-memory models that support invalidation hooks (see
        :meth:`LSSVMModel.add_invalidation_hook`) are wired up so that an
        in-place mutation — a ``partial_fit`` refit rewriting
        ``alpha``/``support_vectors`` — bumps the generation and drops the
        warm engine automatically: serving never answers from the stale
        solution even without an explicit :meth:`reload`.
        """
        if not name:
            raise InvalidParameterError("model name must be non-empty")
        if not isinstance(source, (str, Path) + MODEL_TYPES):
            raise InvalidParameterError(
                "model source must be a path, an LSSVMModel, or a "
                f"FeatureMapModel, got {type(source).__name__}"
            )
        with self._lock:
            current = self._registrations.get(name)
            generation = current.generation + 1 if current is not None else 0
            self._registrations[name] = _Registration(source, generation)
            if current is not None:
                self.reloads += 1
            stale = self._warm.pop(name, None)
            if stale is not None:
                self._warm_bytes -= stale.nbytes
            self._rewire_hook(name, current.source if current is not None else None, source)
            return generation

    def reload(self, name: str, source: Union[str, Path, LSSVMModel, "FeatureMapModel", None] = None) -> int:
        """Hot-swap ``name``: bump the generation and drop the warm engine.

        With ``source`` this is a plain re-registration; without it the
        name is rebuilt from its *current* source — the path is re-read
        (picking up a rewritten model file) or the in-memory model is
        re-admitted (picking up an in-place ``partial_fit`` mutation).
        Returns the new generation.
        """
        if source is None:
            with self._lock:
                current = self._registrations.get(name)
                if current is None:
                    raise ModelNotFoundError(name)
                source = current.source
        return self.register(name, source)

    def unregister(self, name: str) -> None:
        with self._lock:
            if name not in self._registrations:
                raise ModelNotFoundError(name)
            registration = self._registrations.pop(name)
            stale = self._warm.pop(name, None)
            if stale is not None:
                self._warm_bytes -= stale.nbytes
            self._rewire_hook(name, registration.source, None)

    # -- in-memory model invalidation -----------------------------------------

    def _hook_key(self, name: str):
        return ("registry", id(self), name)

    def _rewire_hook(self, name: str, old_source, new_source) -> None:
        """Move the invalidation hook from ``old_source`` to ``new_source``
        (either may be ``None``/a path/a hook-less model; lock held)."""
        key = self._hook_key(name)
        if (
            old_source is not None
            and old_source is not new_source
            and hasattr(old_source, "remove_invalidation_hook")
        ):
            old_source.remove_invalidation_hook(key)
        if new_source is not None and hasattr(new_source, "add_invalidation_hook"):
            new_source.add_invalidation_hook(
                key, lambda model, name=name: self._on_model_invalidated(name, model)
            )

    def _on_model_invalidated(self, name: str, model) -> None:
        """An in-memory model mutated in place: bump its generation so no
        warm engine of the old solution is ever handed out again."""
        with self._lock:
            registration = self._registrations.get(name)
            if registration is None or registration.source is not model:
                return
            registration.generation += 1
            self.reloads += 1
            stale = self._warm.pop(name, None)
            if stale is not None:
                self._warm_bytes -= stale.nbytes

    # -- lookup ---------------------------------------------------------------

    def get(self, name: str) -> PredictionEngine:
        """The warm engine for ``name``, building (and caching) on miss.

        The returned engine always carries the *current* generation: a
        warm engine left over from before a :meth:`reload` can never be
        handed out.

        Cold loads run *outside* the registry lock with per-name
        singleflight: one cold ``get`` never stalls warm hits for other
        models, and concurrent misses for the same (name, generation)
        still load the model exactly once — the extra callers wait on the
        loader's ticket and share its engine.
        """
        while True:
            with self._lock:
                registration = self._registrations.get(name)
                if registration is None:
                    raise ModelNotFoundError(name)
                warm = self._warm.get(name)
                if warm is not None and warm.generation == registration.generation:
                    self.hits += 1
                    self._warm.move_to_end(name)
                    return warm
                inflight = self._loading.get(name)
                if inflight is not None and inflight.generation == registration.generation:
                    ticket, loader = inflight, False
                else:
                    self.misses += 1
                    ticket = _InFlight(registration.generation)
                    self._loading[name] = ticket
                    source = registration.source
                    loader = True
            if not loader:
                ticket.event.wait()
                if ticket.error is not None:
                    raise ticket.error
                with self._lock:
                    registration = self._registrations.get(name)
                    if (
                        registration is not None
                        and ticket.engine is not None
                        and ticket.engine.generation == registration.generation
                    ):
                        self.hits += 1
                        return ticket.engine
                continue  # reloaded (or gone) while loading: start over
            try:
                model = (
                    source if isinstance(source, MODEL_TYPES) else load_model(source)
                )
                engine = PredictionEngine(
                    model,
                    name=name,
                    generation=ticket.generation,
                    **self._engine_kwargs,
                )
            except BaseException as exc:
                ticket.error = exc
                with self._lock:
                    if self._loading.get(name) is ticket:
                        del self._loading[name]
                ticket.event.set()
                raise
            with self._lock:
                if self._loading.get(name) is ticket:
                    del self._loading[name]
                registration = self._registrations.get(name)
                if registration is None:
                    stale = True
                else:
                    stale = registration.generation != ticket.generation
                    if not stale:
                        self._admit(name, engine)
            ticket.engine = engine
            ticket.event.set()
            if stale:
                # A reload (or unregister) raced the build; never hand out
                # a stale generation — re-resolve from the top.
                continue
            return engine

    def _admit(self, name: str, engine: PredictionEngine) -> None:
        """LRU admission under the byte budget (lock held)."""
        nbytes = engine.nbytes
        if nbytes > self.budget_bytes:
            # Retaining it would pin the set over budget forever; serve
            # this engine cold-built, keep the LRU intact.
            self.oversized += 1
            return
        stale = self._warm.pop(name, None)
        if stale is not None:
            self._warm_bytes -= stale.nbytes
        self._warm[name] = engine
        self._warm_bytes += nbytes
        while self._warm_bytes > self.budget_bytes:
            _, evicted = self._warm.popitem(last=False)
            self._warm_bytes -= evicted.nbytes
            self.evictions += 1

    # -- introspection --------------------------------------------------------

    @property
    def warm_bytes(self) -> int:
        with self._lock:
            return self._warm_bytes

    @property
    def warm_models(self) -> List[str]:
        with self._lock:
            return list(self._warm)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._registrations

    def __len__(self) -> int:
        with self._lock:
            return len(self._registrations)

    def models(self) -> List[dict]:
        """JSON-ready per-model summaries for the ``/models`` endpoint."""
        with self._lock:
            out = []
            for name, registration in sorted(self._registrations.items()):
                warm = self._warm.get(name)
                entry = {
                    "name": name,
                    "generation": registration.generation,
                    "warm": warm is not None
                    and warm.generation == registration.generation,
                    "source": (
                        str(registration.source)
                        if not isinstance(registration.source, MODEL_TYPES)
                        else "<in-memory>"
                    ),
                }
                if warm is not None:
                    entry.update(warm.describe())
                out.append(entry)
            return out

    def stats(self) -> dict:
        with self._lock:
            return {
                "registered": len(self._registrations),
                "warm": len(self._warm),
                "warm_bytes": self._warm_bytes,
                "budget_bytes": self.budget_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "oversized": self.oversized,
                "reloads": self.reloads,
            }
