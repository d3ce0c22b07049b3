"""Parallel, resumable execution engine for Monte-Carlo experiments.

Every figure-reproduction runner repeats an independent *trial* — one
testbed run, one sweep point — ``N`` times and aggregates the results.
Because each trial derives all of its randomness from
:meth:`~repro.experiments.config.ExperimentConfig.run_rng` (a dedicated
``np.random.Generator`` substream seeded by the master seed and the trial
index), trials are independent of execution order and of the process that
executes them.  The :class:`ExperimentEngine` exploits exactly that
property:

* **Parallelism** — with ``workers > 1`` trials fan out across a
  :class:`concurrent.futures.ProcessPoolExecutor`; results are re-ordered
  by trial key afterwards, so the output is *bit-identical* to serial
  execution (``workers=1``), just faster.  The engine starts one pool on
  the first call that has two or more trials to execute and keeps it for
  every later call; :meth:`ExperimentEngine.close` (or leaving a ``with``
  block) shuts it down.
* **Resumability** — with a ``cache_dir`` set, every completed trial is
  pickled into the package's one content-addressed store
  (:mod:`repro.store`) under a digest of (experiment name, trial
  function, config fields, sweep parameters, trial key), inside a
  directory named by the fingerprint of the package's source.  A re-run
  of an interrupted paper-scale sweep loads the finished trials and only
  executes the missing ones.  Changing any config field, the sweep grid
  or any line of the package's code changes where a trial is looked up,
  so a result computed by other code or another configuration is never
  reused.

The engine is deliberately generic: a trial function is any picklable
top-level callable ``trial_fn(config, key, **params)``, and a trial key is
any int/float/str/tuple that identifies the trial (a run index, an SNR
value, ...).  Every runner in :mod:`repro.experiments` executes through
:meth:`ExperimentEngine.map`.
"""

from __future__ import annotations

import json
import pickle
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Union

import repro
from repro.exceptions import ConfigurationError
from repro.store import Store, content_digest

#: Signature every trial function must satisfy: ``(config, key, **params)``.
TrialFn = Callable[..., Any]

#: Accepted trial-key types (see :func:`_key_token`).
TrialKey = Union[int, float, str, tuple]

#: Where ``--resume`` caches trials when no explicit directory is given.
DEFAULT_CACHE_DIR = Path(".anc_cache")


def _key_token(key: TrialKey) -> str:
    """Injective text encoding of a trial key (part of its store key).

    Distinct keys never share a token: values are type-tagged (``1`` vs
    ``"1"``), strings are length-prefixed (so tuple joins cannot be
    forged by embedded separators), and tuples keep their structure.
    """
    if isinstance(key, bool):
        raise ConfigurationError("trial keys must be int, float, str or tuple")
    if isinstance(key, int):
        return f"i{key}"
    if isinstance(key, float):
        return f"f{key!r}"
    if isinstance(key, str):
        return f"s{len(key)}:{key}"
    if isinstance(key, tuple):
        return "t(" + ",".join(_key_token(part) for part in key) + ")"
    raise ConfigurationError("trial keys must be int, float, str or tuple")


def _pickle(result: Any) -> bytes:
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def _unpickle_boxed(raw: bytes) -> tuple:
    return (pickle.loads(raw),)


@dataclass(frozen=True)
class EngineStats:
    """Bookkeeping of one :meth:`ExperimentEngine.map` invocation.

    Attributes
    ----------
    total_trials:
        Number of trials requested.
    executed_trials:
        Trials actually computed in this invocation.
    cached_trials:
        Trials satisfied from the on-disk cache (``resume``).
    workers:
        Worker processes the engine was configured with.
    digest:
        The cache digest of (experiment, trial function, config, params).
    """

    total_trials: int
    executed_trials: int
    cached_trials: int
    workers: int
    digest: str
    #: Wall-clock seconds the invocation took (cache loading included).
    elapsed_seconds: float = 0.0


class ExperimentEngine:
    """Fans independent experiment trials out across process workers.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) executes trials
        serially in-process — the reference behaviour every parallel run
        must be bit-identical to.
    cache_dir:
        When set, completed trials are pickled into a
        :class:`~repro.store.Store` rooted there as soon as they finish,
        and later invocations of the same task on the same source tree
        load them instead of recomputing — this is what makes interrupted
        paper-scale sweeps resumable.  ``None`` (the default) disables
        all disk I/O.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        """See the class docstring for the constructor-knob semantics."""
        if int(workers) < 1:
            raise ConfigurationError("workers must be a positive integer")
        self.workers = int(workers)
        #: The trial cache; remembers nothing when ``cache_dir`` is ``None``.
        self.store = Store(cache_dir, ".pkl")
        #: Stats of the most recent :meth:`map` call (``None`` before any).
        self.last_stats: Optional[EngineStats] = None
        #: Stats of every :meth:`map` call this engine executed, in order.
        #: The structured-results pipeline slices this log to attach the
        #: cache/timing metadata of exactly one experiment to its result
        #: (see :func:`repro.api.run`).
        self.stats_log: List[EngineStats] = []
        self._pool: Optional[ProcessPoolExecutor] = None

    def close(self) -> None:
        """Shut down the worker pool, if one was started (idempotent).

        The engine stays usable: a later parallel call starts a new pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ExperimentEngine":
        """Use the engine in a ``with`` block that closes its pool."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Close the pool on leaving the ``with`` block."""
        self.close()

    # ------------------------------------------------------------------
    # Cache keying
    # ------------------------------------------------------------------
    @staticmethod
    def task_digest(
        experiment: str,
        trial_fn: TrialFn,
        config: Any,
        params: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Stable digest identifying one (experiment, config, params) task.

        Any change to the library version, the experiment name, the trial
        function's qualified name, a config field, or a sweep parameter
        yields a different digest, so cached trials can never leak across
        configurations (code edits are caught by the store's source
        fingerprint instead).

        Configs that are neither snapshot-bearing, nor dataclasses, nor
        plainly JSON-serializable are rejected with
        :class:`~repro.exceptions.ConfigurationError`: silently digesting
        their ``repr`` would bake memory addresses into the digest and
        resume would never hit.
        """
        snapshot = getattr(config, "snapshot", None)
        if callable(snapshot):
            # Configs that curate their own JSON view (ExperimentConfig
            # omits disabled impairments so old digests stay valid) are
            # digested through it.
            config_repr: Any = snapshot()
        elif is_dataclass(config) and not isinstance(config, type):
            config_repr = asdict(config)
        else:
            try:
                json.dumps(config)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"cannot build a stable cache digest for config of type "
                    f"{type(config).__name__}: it is not a dataclass, has no "
                    "snapshot() method, and is not JSON-serializable (its repr "
                    "would embed memory addresses, so resume would never hit)"
                ) from None
            config_repr = config
        params_repr = dict(params) if params else {}
        for name, value in params_repr.items():
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"cannot build a stable cache digest: trial param {name!r} "
                    f"of type {type(value).__name__} is not JSON-serializable "
                    "(its repr could embed memory addresses, so resume would "
                    "never hit)"
                ) from None
        payload = {
            "version": getattr(repro, "__version__", "0"),
            "experiment": experiment,
            "trial_fn": f"{trial_fn.__module__}.{trial_fn.__qualname__}",
            "config": config_repr,
            "params": params_repr,
        }
        try:
            return content_digest(payload, 20)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"cannot build a stable cache digest for config of type "
                f"{type(config).__name__}: a field is not JSON-serializable"
            ) from None

    @property
    def cache_dir(self) -> Optional[Path]:
        """Root of the trial cache (``None`` when caching is off)."""
        return self.store.root

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def map(
        self,
        experiment: str,
        trial_fn: TrialFn,
        config: Any,
        trial_keys: Iterable[TrialKey],
        params: Optional[Mapping[str, Any]] = None,
    ) -> List[Any]:
        """Execute ``trial_fn(config, key, **params)`` for every key.

        Results are returned in ``trial_keys`` order regardless of
        completion order, worker count, or cache hits, which is what
        guarantees parallel runs aggregate identically to serial ones.
        Each trial is cached under its own key as soon as it finishes,
        so an interrupted sweep resumes at per-trial granularity.

        Parameters
        ----------
        experiment:
            Name of the experiment (part of the cache digest).
        trial_fn:
            Picklable top-level callable executing one trial.  It must
            draw all randomness from generators seeded by ``config`` and
            ``key`` (e.g. :meth:`ExperimentConfig.run_rng`) — never from
            global state — or parallel execution would not be
            reproducible.
        config:
            Passed verbatim as the first argument; its fields are part of
            the cache digest.
        trial_keys:
            Keys identifying the trials (run indices, sweep points, ...).
        params:
            Extra keyword arguments passed to every trial; also part of
            the cache digest (e.g. the sweep grid).
        """
        started = time.perf_counter()
        keys = list(trial_keys)
        tokens = [_key_token(key) for key in keys]
        if len(set(tokens)) != len(keys):
            raise ConfigurationError("trial keys must be unique")
        kwargs = dict(params) if params else {}
        digest = self.task_digest(experiment, trial_fn, config, params)
        # Trials are tracked by position: distinct keys may compare equal
        # (``1 == 1.0``) although their tokens differ.
        entries = [content_digest({"task": digest, "key": token}, 64) for token in tokens]
        results: List[Any] = [None] * len(keys)
        pending: List[int] = []
        for index, entry in enumerate(entries):
            # A hit comes boxed in a 1-tuple so a cached ``None`` is no miss.
            cached = self.store.get(entry, _unpickle_boxed)
            if cached is None:
                pending.append(index)
            else:
                results[index] = cached[0]

        if self.workers == 1 or len(pending) <= 1:
            # In-process: execute then persist trial by trial, so an
            # interruption never loses a completed trial from the cache.
            for index in pending:
                results[index] = trial_fn(config, keys[index], **kwargs)
                self.store.put(entries[index], results[index], _pickle)
        else:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            futures: Dict[Future, int] = {}
            try:
                for index in pending:
                    futures[self._pool.submit(trial_fn, config, keys[index], **kwargs)] = index
                for future in as_completed(futures):
                    # Persist incrementally so an interruption after this
                    # point never re-runs this trial.
                    index = futures[future]
                    results[index] = future.result()
                    self.store.put(entries[index], results[index], _pickle)
            except BrokenProcessPool:
                # A dead worker breaks the whole pool; the next call
                # starts a fresh one.
                self.close()
                raise
            finally:
                # A failed trial leaves nothing queued behind it.
                for future in futures:
                    future.cancel()

        self.last_stats = EngineStats(
            total_trials=len(keys),
            executed_trials=len(pending),
            cached_trials=len(keys) - len(pending),
            workers=self.workers,
            digest=digest,
            elapsed_seconds=time.perf_counter() - started,
        )
        self.stats_log.append(self.last_stats)
        return results


def default_engine(engine: Optional[ExperimentEngine]) -> ExperimentEngine:
    """The engine a runner should use: the caller's, or a serial fallback."""
    return engine if engine is not None else ExperimentEngine()
