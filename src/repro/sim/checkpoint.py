"""Checkpoint/restore for cycle-level simulation runs.

Simulated threads are Python generators, which cannot be pickled — so a
checkpoint is *record/replay* shaped.  While a kernel runs with
``record=True`` it logs the global order of generator resumes (and the
values sent in: fetch-add results, sync-load values).  A snapshot then
consists of

* that resume log (replaying it against freshly-built programs
  reproduces every Python-side effect — shared array writes, local
  variables — without simulating a single cycle), and
* the explicit serializable state of everything else: per-thread
  scheduling state (:meth:`repro.sim.thread.SimThread.to_state`),
  machine-owned memory/timing state (:meth:`MachineModel.to_state`),
  barriers, phase slices, and counters
  (:meth:`repro.sim.kernel.SimKernel.snapshot`).

Restore = rebuild the same workload (deterministic given its seed),
replay the log, install the state, continue — byte-identical to the
uninterrupted run on both scheduling disciplines.

On-disk artifacts are content-addressed: line 1 is a JSON header
(format/state versions, code digests of the kernel-critical modules,
machine, setup digest, progress, owning job), followed by a
zlib-compressed pickle payload; the artifact id is the SHA-256 of the
file bytes.  The header is readable without touching the payload, so
``repro checkpoint ls`` stays cheap.  Any version or digest mismatch on
load raises a structured :class:`~repro.errors.CheckpointError` before
anything is restored.

:class:`CheckpointSession` spans the possibly-multiple engine runs of
one workload execution (MTA list ranking builds four engines; connected
components loops data-dependently): completed runs are stored as
(name, log, report) entries and *replayed* on resume — their Python
effects re-execute, their stored reports are returned, no cycles are
simulated — while the in-flight run restores from the kernel snapshot
and continues.  See docs/SIMULATION.md, "Checkpoint & resume".
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import CheckpointError, WatchdogExceeded
from .hooks import HOOK_EVENTS
from .kernel import CHECKPOINT_STATE_VERSION

__all__ = [
    "Checkpoint",
    "CheckpointSession",
    "CheckpointStore",
    "default_checkpoint_root",
    "load_checkpoint",
    "pack_checkpoint",
    "read_header",
]

#: First bytes of every artifact header.
MAGIC = "repro-ckpt"
#: On-disk container format version (header + compressed pickle payload).
FORMAT_VERSION = 1

#: Modules whose source defines snapshot semantics: a checkpoint is only
#: valid against byte-identical copies of these (plus the machine's own
#: defining module, added per artifact).
_CORE_MODULES = (
    "repro.sim.isa",
    "repro.sim.kernel",
    "repro.sim.thread",
)

_digest_cache: dict[str, str] = {}


def _module_digest(modname: str) -> str:
    """SHA-256 of a module's source file (memoized per process)."""
    d = _digest_cache.get(modname)
    if d is None:
        import importlib

        try:
            mod = importlib.import_module(modname)
            d = hashlib.sha256(Path(mod.__file__).read_bytes()).hexdigest()
        except Exception as exc:
            raise CheckpointError(f"cannot digest module {modname!r}: {exc}") from exc
        _digest_cache[modname] = d
    return d


def _hooks_digest() -> str:
    return hashlib.sha256(",".join(HOOK_EVENTS).encode()).hexdigest()


def component_digests(machine_module: str) -> dict:
    """Code-version digests recorded in (and checked against) headers."""
    mods = _CORE_MODULES + ((machine_module,) if machine_module not in _CORE_MODULES else ())
    return {m: _module_digest(m) for m in mods}


def default_checkpoint_root() -> Path:
    """``$REPRO_CHECKPOINT_DIR``, or ``<cache root>/checkpoints`` — the
    default cache's :meth:`~repro.core.cache.SweepCache.checkpoint_root`."""
    from ..core.cache import SweepCache

    return SweepCache().checkpoint_root()


# -- artifact codec -------------------------------------------------------------


def pack_checkpoint(header: dict, payload: dict) -> bytes:
    """Serialize one artifact: JSON header line + compressed pickle.

    Compression level 1: artifacts are written at every snapshot
    boundary of a live run but read at most once (on resume), so write
    speed is what bounds checkpointing overhead (bench_checkpoint.py
    enforces < 5 % at ``every=100_000``); the replay logs compress well
    even at the fastest level.
    """
    body = zlib.compress(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL), 1)
    header = dict(
        header,
        payload_bytes=len(body),
        payload_sha256=hashlib.sha256(body).hexdigest(),
    )
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return head + b"\n" + body


def read_header(path) -> dict:
    """Parse an artifact's header without loading the payload."""
    try:
        with open(path, "rb") as f:
            line = f.readline()
        header = json.loads(line)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise CheckpointError(f"{path} is not a repro checkpoint artifact")
    return header


@dataclass
class Checkpoint:
    """One loaded artifact: validated header + decoded payload."""

    header: dict
    #: Completed-run entries: ``{"name", "setup", "log", "report"}``.
    runs: list
    #: Kernel snapshot of the in-flight run (see ``SimKernel.snapshot``).
    state: dict | None
    #: Content address (SHA-256 of the artifact bytes).
    cid: str = ""
    path: Path | None = None


def load_checkpoint(path) -> Checkpoint:
    """Load and fully validate one artifact.

    Raises :class:`~repro.errors.CheckpointError` on any mismatch —
    container format, kernel/machine state versions, code digests of the
    kernel-critical modules, hook-bus layout, or payload corruption —
    *before* anything is deserialized into live objects, so a stale
    checkpoint can never partially restore.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    nl = raw.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path} is not a repro checkpoint artifact")
    try:
        header = json.loads(raw[:nl])
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint header in {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise CheckpointError(f"{path} is not a repro checkpoint artifact")
    if header.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format {header.get('format')!r} unsupported"
            f" (this build reads format {FORMAT_VERSION})"
        )
    if header.get("state_version") != CHECKPOINT_STATE_VERSION:
        raise CheckpointError(
            f"kernel-state version {header.get('state_version')!r} !="
            f" {CHECKPOINT_STATE_VERSION}; re-run instead of resuming"
        )
    if header.get("hooks") != _hooks_digest():
        raise CheckpointError(
            "hook-bus layout changed since this checkpoint was written"
        )
    stale = []
    for mod, digest in (header.get("code") or {}).items():
        if _module_digest(mod) != digest:
            stale.append(mod)
    if stale:
        raise CheckpointError(
            f"checkpoint {path.name} was written by different code"
            f" (modules changed: {', '.join(sorted(stale))}); re-run instead"
            " of resuming"
        )
    body = raw[nl + 1 :]
    if len(body) != header.get("payload_bytes") or (
        hashlib.sha256(body).hexdigest() != header.get("payload_sha256")
    ):
        raise CheckpointError(f"checkpoint payload corrupt in {path}")
    try:
        payload = pickle.loads(zlib.decompress(body))
    except Exception as exc:
        raise CheckpointError(f"cannot decode checkpoint payload: {exc}") from exc
    return Checkpoint(
        header=header,
        runs=list(payload.get("runs", ())),
        state=payload.get("state"),
        cid=hashlib.sha256(raw).hexdigest(),
        path=path,
    )


# -- on-disk store ---------------------------------------------------------------


def _progress_at(header: dict) -> float:
    prog = header.get("progress") or {}
    return prog.get("cycle", prog.get("steps", 0))


class CheckpointStore:
    """Content-addressed checkpoint artifacts under one root directory.

    Layout: ``<root>/<group>/<cid>.ckpt`` where ``group`` is the first
    16 hex digits of the owning job key (``adhoc`` for sessions without
    one) and ``cid`` is the SHA-256 of the artifact bytes.  Artifacts
    are immutable; newer checkpoints of the same job are separate files
    (pruned LRU by ``repro cache --prune``).
    """

    def __init__(self, root=None) -> None:
        self.root = Path(root) if root is not None else default_checkpoint_root()

    def put(self, header: dict, payload: dict) -> Path:
        data = pack_checkpoint(header, payload)
        cid = hashlib.sha256(data).hexdigest()
        group = ((header.get("job") or {}).get("key") or "adhoc")[:16] or "adhoc"
        d = self.root / group
        d.mkdir(parents=True, exist_ok=True)
        path = d / f"{cid}.ckpt"
        tmp = d / f".{cid}.tmp"
        tmp.write_bytes(data)
        os.replace(tmp, path)
        return path

    def entries(self):
        """All readable artifacts as ``(path, header)``, sorted by path;
        unreadable files are skipped."""
        out = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.glob("*/*.ckpt")):
            try:
                out.append((path, read_header(path)))
            except CheckpointError:
                continue
        return out

    def newest_for(self, job_key: str) -> Path | None:
        """The most advanced artifact of ``job_key`` (by run index, then
        progress, then mtime), or None."""
        best = None
        for path, header in self.entries():
            if ((header.get("job") or {}).get("key")) != job_key:
                continue
            rank = (
                header.get("run_index", 0),
                _progress_at(header),
                path.stat().st_mtime,
            )
            if best is None or rank > best[0]:
                best = (rank, path)
        return best[1] if best else None

    def resolve(self, ref) -> Path:
        """Resolve a path or a (prefix of a) content id to an artifact."""
        p = Path(ref)
        if p.is_file():
            return p
        ref = str(ref)
        matches = [
            path for path, _ in self.entries() if path.stem.startswith(ref)
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise CheckpointError(f"no checkpoint matches {ref!r} under {self.root}")
        raise CheckpointError(
            f"checkpoint id {ref!r} is ambiguous ({len(matches)} matches)"
        )

    def rm(self, ref) -> Path:
        path = self.resolve(ref)
        path.unlink()
        return path


# -- session: checkpointing across the runs of one workload ---------------------


def _make_header(kernel, state: dict, run_index: int, job) -> dict:
    model = kernel.model
    return {
        "magic": MAGIC,
        "format": FORMAT_VERSION,
        "state_version": CHECKPOINT_STATE_VERSION,
        "machine_state_version": model.state_version,
        "code": component_digests(type(model).__module__),
        "hooks": _hooks_digest(),
        "machine": model.kind,
        "scheduling": model.scheduling,
        "p": model.p,
        "setup": state["setup"],
        "run_index": run_index,
        "run_name": state["name"],
        "progress": state["progress"],
        "job": job,
    }


@dataclass
class CheckpointSession:
    """Checkpointing scope for one workload execution.

    Engines constructed with ``session=`` route their runs through
    :meth:`run`, which numbers them globally.  With ``resume`` set,
    already-completed runs replay from their stored logs (returning the
    stored report — no simulation, no hook events) and the in-flight run
    restores from the kernel snapshot; subsequent runs execute normally.
    With ``every`` set, executing runs snapshot at each boundary and
    persist to ``store``.  ``should_stop`` is polled at every snapshot
    boundary; when it returns truthy the current state is persisted and
    the run pauses via :class:`~repro.errors.RunPaused` (graceful drain).

    A session allows exactly one run per kernel: the replay log is per
    kernel, so workloads that run several phases must build one engine
    per phase (as the in-tree ones do).
    """

    #: Snapshot every N steps/cycles (None: only stop-polling snapshots).
    every: int | None = None
    store: CheckpointStore | None = None
    #: Identity of the owning job (``{"key": ...}``) recorded in headers.
    job: dict | None = None
    #: A loaded :class:`Checkpoint` to resume from.
    resume: Checkpoint | None = None
    #: Callable polled at snapshot boundaries; truthy = pause the run.
    should_stop: object = None
    #: Boundary spacing used for stop-polling when ``every`` is unset.
    stop_poll: int = 50_000

    #: Artifact paths persisted by this session.
    written: list = field(default_factory=list)
    #: Content id of the artifact actually resumed from (None until the
    #: in-flight run restores).
    resumed_from: str | None = None
    #: Completed runs that were replayed from the resume artifact.
    replayed_runs: int = 0

    def __post_init__(self):
        self._runs: list = []
        self._next_run = 0
        self._kernels: dict = {}

    def run(self, kernel, name: str, *, budget=None):
        """Execute (or replay, or resume) run ``name`` on ``kernel``."""
        if id(kernel) in self._kernels:  # allow_nondet: same-process identity guard, never persisted
            raise CheckpointError(
                "a checkpoint session allows one run per kernel; build a"
                " fresh engine for each phase"
            )
        self._kernels[id(kernel)] = kernel  # allow_nondet: same-process identity guard, never persisted
        idx = self._next_run
        self._next_run += 1
        res = self.resume
        if res is not None and idx < len(res.runs):
            entry = res.runs[idx]
            if entry["name"] != name:
                raise CheckpointError(
                    f"resume mismatch: run #{idx} is {name!r} but the"
                    f" checkpoint recorded {entry['name']!r}"
                )
            if entry["setup"] != kernel.setup_digest:
                raise CheckpointError(
                    f"resume mismatch: run #{idx} ({name!r}) was checkpointed"
                    " from a different workload setup; nothing was replayed"
                )
            kernel.replay_log(entry["log"])
            self._runs.append(entry)
            self.replayed_runs += 1
            return entry["report"]
        if res is not None and idx == len(res.runs) and res.state is not None:
            kernel.resume(res.state)
            self.resumed_from = res.cid
        every = self.every
        if every is None and self.should_stop is not None:
            every = self.stop_poll
        sink = self._make_sink(kernel) if every is not None else None
        try:
            report = kernel.run(
                name, budget=budget,
                checkpoint_every=every, checkpoint_sink=sink,
            )
        except WatchdogExceeded as exc:
            # post-mortem artifact: resume later with a larger budget
            if exc.checkpoint is not None and self.store is not None:
                exc.checkpoint_path = str(self._persist(exc.checkpoint, kernel))
            raise
        self._runs.append(
            {
                "name": name,
                "setup": kernel.setup_digest,
                "log": kernel.resume_log(),
                "report": report,
            }
        )
        return report

    def _make_sink(self, kernel):
        def sink(state):
            stop = bool(self.should_stop()) if self.should_stop is not None else False
            if self.store is not None and (self.every is not None or stop):
                self._persist(state, kernel)
            return stop

        return sink

    def _persist(self, state: dict, kernel) -> Path:
        header = _make_header(kernel, state, run_index=len(self._runs), job=self.job)
        path = self.store.put(header, {"runs": self._runs, "state": state})
        self.written.append(path)
        return path
