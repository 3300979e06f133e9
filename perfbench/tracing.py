"""In-memory spans recorded around the program's public entry points.

The traced run patches the entry points below with thin wrappers that
record a span (name, start, end, parent, round or request id) and put
the originals back afterwards. The program itself is not modified; a
span's self time is its duration minus the spans nested inside it on the
same thread.

Training layers: ``read_libsvm_file``, ``save_model``, ``load_model``,
``build_reduced_system`` / ``conjugate_gradient`` /
``recover_bias_and_alpha`` where ``repro.core.lssvm`` binds them,
``TilePipeline.sweep`` / ``cross_sweep``, ``LSSVC.fit``,
``LSSVMModel.decision_function`` and ``PredictionEngine.evaluate``.

Serving layers (installed in the server process by ``serve_launcher``):
the HTTP handler's ``do_POST``, ``ServingApp.predict``,
``MicroBatcher.submit``, ``PredictionEngine.evaluate`` and
``TilePipeline.cross_sweep``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "install_training", "install_serving"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "attrs", "child_s")

    def __init__(self, name: str, start: float, parent: int, rid) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.attrs: Dict[str, float] = {}
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rid": self.rid,
            "self_s": self.self_s,
            "attrs": self.attrs,
        }


class Tracer:
    """Span recorder plus the patch/unpatch bookkeeping of its wrappers.

    Spans nest per thread: a span opened while another is open on the
    same thread becomes its child and inherits its id. Spans opened on a
    thread with nothing open (the batcher's flush worker) are roots.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[tuple] = []
        self._next_rid = 0

    def new_rid(self) -> int:
        with self._lock:
            self._next_rid += 1
            return self._next_rid

    @contextmanager
    def span(self, name: str, rid=None) -> Iterator[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        if rid is None and stack:
            rid = self.spans[parent].rid
        sp = Span(name, time.perf_counter(), parent, rid)
        with self._lock:
            index = len(self.spans)
            self.spans.append(sp)
        stack.append(index)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += sp.dur

    def patch(
        self,
        owner,
        attr: str,
        name: str,
        meta: Optional[Callable] = None,
        new_request: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``meta(args, kwargs, result, span)`` may add attributes after the
        call; ``new_request`` gives every call a fresh id.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rid = tracer.new_rid() if new_request else None
            with tracer.span(name, rid) as sp:
                result = original(*args, **kwargs)
                if meta is not None:
                    meta(args, kwargs, result, sp)
                return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path, **extra) -> None:
        """Write the spans, and any ``extra`` fields, as one JSON object."""
        with self._lock:
            data = [sp.as_dict() for sp in self.spans]
        Path(path).write_text(json.dumps({"spans": data, **extra}))


def install_training(tracer: Tracer) -> None:
    """Wrap the training and offline-prediction entry points."""
    from repro.core import lssvm, model, tile_pipeline
    from repro.io import libsvm_format
    from repro.serve import engine

    def read_meta(args, kwargs, result, sp):
        sp.attrs["bytes"] = Path(args[0]).stat().st_size

    def cg_meta(args, kwargs, result, sp):
        sp.attrs["iterations"] = result.iterations
        sp.attrs["residual"] = result.residual

    tracer.patch(libsvm_format, "read_libsvm_file", "io.read", read_meta)
    tracer.patch(model, "save_model", "io.save")
    tracer.patch(model, "load_model", "io.load")
    tracer.patch(lssvm, "build_reduced_system", "qmatrix.build")
    tracer.patch(lssvm, "conjugate_gradient", "cg.solve", cg_meta)
    tracer.patch(lssvm, "recover_bias_and_alpha", "qmatrix.recover")
    tracer.patch(lssvm.LSSVC, "fit", "lssvm.fit")
    tracer.patch(model.LSSVMModel, "decision_function", "model.decision_function")
    tracer.patch(engine.PredictionEngine, "evaluate", "engine.evaluate", _rows_meta)
    _patch_pipeline(tracer, tile_pipeline.TilePipeline)


def install_serving(tracer: Tracer) -> None:
    """Wrap the serving entry points (run inside the server process)."""
    from repro.core import tile_pipeline
    from repro.serve import batcher, engine, server

    tracer.patch(server._Handler, "do_POST", "server.request", new_request=True)
    tracer.patch(server.ServingApp, "predict", "server.app_predict")
    tracer.patch(batcher.MicroBatcher, "submit", "batcher.submit")
    tracer.patch(engine.PredictionEngine, "evaluate", "engine.evaluate", _rows_meta)
    _patch_pipeline(tracer, tile_pipeline.TilePipeline)


def _rows_meta(args, kwargs, result, sp):
    sp.attrs["rows"] = int(len(result[1]))


def _patch_pipeline(tracer: Tracer, cls) -> None:
    sweep = cls.__dict__["sweep"]
    cross = cls.__dict__["cross_sweep"]

    @functools.wraps(sweep)
    def traced_sweep(self, V, *args, **kwargs):
        before = self.tiles_computed
        with tracer.span("tile_pipeline.sweep") as sp:
            result = sweep(self, V, *args, **kwargs)
        cols = 1 if getattr(V, "ndim", 1) == 1 else V.shape[1]
        sp.attrs.update(
            computed=self.tiles_computed - before,
            tiles=self.num_tiles,
            n=self.points.shape[0],
            d=self.points.shape[1],
            k=cols,
            itemsize=self.compute_dtype.itemsize,
        )
        return result

    @functools.wraps(cross)
    def traced_cross(self, Q, *args, **kwargs):
        with tracer.span("tile_pipeline.cross_sweep") as sp:
            result = cross(self, Q, *args, **kwargs)
        sp.attrs["rows"] = 1 if getattr(Q, "ndim", 2) == 1 else int(Q.shape[0])
        return result

    tracer._patched.append((cls, "sweep", sweep))
    tracer._patched.append((cls, "cross_sweep", cross))
    cls.sweep = traced_sweep
    cls.cross_sweep = traced_cross
