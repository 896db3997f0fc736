"""The one process pool: serial-or-pooled execution of fast-path cells.

A :class:`~repro.netsim.fastpath.ProbeCell` carries its own derived seed,
so its arrays are a pure function of the cell: running cells inline, in
another order, in other batches or in worker processes yields
*bit-identical* arrays. :class:`CellPool` is the only place that spawns
workers, and every batch — inline or shipped — goes through the one kernel,
:func:`~repro.netsim.fastpath.simulate_cell_batch`, which is also the
worker entry point: the §II study (:func:`map_cells`) ships one cell per
task, localization campaigns
(:class:`~repro.perf.shardloop.CampaignEngine`) one client region's share
of an epoch per task, and inline the whole batch is one kernel call.

Cells are packed float rows with a few small tuples and workers return
bare ``(send_times, rtts)`` arrays, so crossing the process boundary costs
microseconds per cell. Those arrays are also what the caller keeps:
:func:`map_cells` wraps each pair as a
:class:`~repro.netsim.trace.MeasurementTrace` without copying it, so no
Python object is built per probe whether the cells ran inline or pooled,
and the pool's speedup is the kernel's.

**Worker counts.** ``-1`` adapts to the machine (every core; serial on a
single-core box). An explicit count is honoured and clamped only to the
task count: results never depend on it, and the serial-vs-sharded digest
checks must exercise a real pool even on a one-core runner.

**Degraded mode.** A pool that cannot be spawned (fd exhaustion, fork
limits, sandboxed environments) or that breaks mid-batch reruns that batch
inline, stays serial afterwards and counts the event in
:data:`fallback_serial_total` — never crashing the study or the campaign.
:attr:`CellPool.pooled_batches` says how many batches the workers did
complete, so a caller can tell a pool that worked from one that never did.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable, Iterator, Sequence

from repro.netsim.fastpath import Arrays, ProbeCell, simulate_cell_batch
from repro.netsim.trace import MeasurementTrace

#: Batches rerun serially because the pool failed to spawn or broke, total
#: since import. The one fallback counter: campaigns report its movement
#: as ``CampaignResult.fallbacks``.
fallback_serial_total = 0


def resolve_workers(workers: int | None, n_tasks: int) -> int:
    """Effective pool size for a request: 0 means run serially."""
    if workers == -1:
        cores = os.cpu_count() or 1
        workers = cores if cores > 1 else 0
    return min(max(workers or 0, 0), n_tasks)


class CellPool:
    """Runs batches of cells inline or on a process pool spawned once.

    ``workers`` is the resolved pool size (0: serial). Use as a context
    manager; the processes start with the first pooled batch and are shut
    down on exit.
    """

    def __init__(self, workers: int | None, n_tasks: int) -> None:
        self.workers = resolve_workers(workers, n_tasks)
        #: Batches the worker processes completed (0: every cell ran inline).
        self.pooled_batches = 0
        self._executor: ProcessPoolExecutor | None = None

    def __enter__(self) -> "CellPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def run(
        self, cells: Sequence[ProbeCell], group_keys: Iterable[int]
    ) -> Iterator[Arrays]:
        """Yield each cell's ``(send_times, rtts)`` in input order.

        Pooled, cells sharing a group key travel as one task (one kernel
        call in the worker), submitted in sorted key order; serially the
        whole batch is one kernel call here. Either way the batch completes
        before the first pair is yielded.
        """
        global fallback_serial_total
        if self.workers:
            groups: dict[int, list[int]] = {}
            for index, key in enumerate(group_keys):
                groups.setdefault(key, []).append(index)
            results: list[Arrays | None] = [None] * len(cells)
            try:
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(max_workers=self.workers)
                futures = [
                    (
                        groups[key],
                        self._executor.submit(
                            simulate_cell_batch, [cells[i] for i in groups[key]]
                        ),
                    )
                    for key in sorted(groups)
                ]
                for indices, future in futures:
                    for index, arrays in zip(indices, future.result()):
                        results[index] = arrays
            except (OSError, BrokenProcessPool):
                self.close()
                self.workers = 0
                fallback_serial_total += 1
            else:
                self.pooled_batches += 1
                yield from results
                return
        yield from simulate_cell_batch(cells)


def map_cells(
    cells: Iterable[ProbeCell], *, workers: int | None = None
) -> list[MeasurementTrace]:
    """Simulate ``cells`` and return traces in input order, each holding
    its cell's kernel arrays as its columns.

    ``workers=None`` (or 0) runs serially in-process; see the module
    docstring for other counts. Because each cell carries its own derived
    seed, the result is identical for every choice of ``workers`` —
    parallelism is purely a wall-clock decision.
    """
    cell_list = list(cells)
    with CellPool(workers, len(cell_list)) as pool:
        return [
            MeasurementTrace.from_arrays(
                cell.protocol, send_times, rtts, label=cell.label
            )
            for cell, (send_times, rtts) in zip(
                cell_list, pool.run(cell_list, range(len(cell_list)))
            )
        ]
