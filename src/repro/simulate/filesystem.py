"""A GPFS-like parallel-filesystem model.

This is the substitute for the paper's JUWELS → JUST (GPFS) storage
stack. It models exactly the mechanisms behind the
paper's findings, no more:

**Metadata server** (:attr:`ParallelFS.mds`) — a FIFO server pool.
File creates and opens queue here; a file-per-process run issues N
creates that serialize only lightly (capacity > 1), which is the
"metadata overhead" trade-off the paper discusses for FPP.

**Byte-range token manager** (:attr:`ParallelFS.token_server`) — the
GPFS distributed-lock mechanism that makes the *single-shared-file* run
expensive:

- opening a file that other ranks already hold write tokens on forces a
  whole-file token revocation, serialized at the token server with cost
  proportional to the number of holders (→ the paper's dominant
  ``openat`` load in SSF, Fig. 8b);
- a rank's *first* write to a shared file acquires its byte-range token
  (one serialized grant);
- subsequent shared-file writes suffer a *probabilistic boundary
  conflict* (token ping-pong at block boundaries), a serialized stall
  of several milliseconds. This produces the heavy-tailed write
  durations that explain the paper's seemingly contradictory numbers —
  mean per-event data rate within ~25 % of FPP, yet total duration
  (Load) orders of magnitude higher;
- shared-file *reads* of ranges another rank wrote trigger a
  write→read token downgrade with its own (smaller) stall probability,
  giving SSF reads their mc = 96 pile-up while FPP reads stay cheap.

**Page cache** — writes land in the page cache at memory speed (the
syscall "returns as soon as the page table is updated", Sec. III);
``fsync`` flushes a rank's dirty bytes to storage. Reads served from
the local node's cache run at memory speed; IOR's ``-C`` defeats this
by reading data written on the *neighboring node* (Sec. V-A), which we
model as a cache-bypassing storage read.

**Storage reads** — served at a fixed streaming rate + latency with
log-normal jitter. JUST's aggregate bandwidth far exceeds what 96
ranks of 1 MB transfers pull, so no capacity queue is modelled for
data; contention lives in the token/metadata layers, as in GPFS.

All durations are integer microseconds; randomness comes from a
dedicated ``numpy`` Generator so runs are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from repro._util.errors import SimulationError
from repro.simulate.kernel import SimEvent, Simulator
from repro.simulate.resources import Resource


@dataclass
class FSConfig:
    """Tunable constants of the filesystem model.

    Defaults are calibrated so the IOR benches reproduce the *shape* of
    the paper's Fig. 8/9 (orderings and rough ratios, not absolute
    JUWELS timings) — see EXPERIMENTS.md.
    """

    # -- metadata server ---------------------------------------------------
    mds_capacity: int = 4          #: parallel MDS service slots
    create_service_us: int = 350   #: create a new file (FPP cost)
    open_service_us: int = 60      #: open an existing file
    stat_service_us: int = 25      #: metadata query

    # -- token / lock manager ------------------------------------------------
    token_grant_us: int = 40           #: uncontended byte-range grant
    shared_open_revoke_us: int = 25000  #: inode-token revoke at contended open
    token_split_us: int = 1200         #: first byte-range split on shared file
    write_conflict_probability: float = 0.02  #: boundary token ping-pong
    write_conflict_stall_us: int = 15000      #: serialized conflict cost
    read_downgrade_probability: float = 0.012  #: write→read token downgrade
    read_downgrade_stall_us: int = 2000        #: serialized downgrade cost

    # -- data movement -----------------------------------------------------------
    page_cache_write_mbps: float = 3400.0   #: memcpy into page cache
    cache_read_mbps: float = 9000.0         #: read served from local cache
    storage_read_mbps: float = 5200.0       #: streaming read from NSDs
    storage_read_latency_us: int = 25
    flush_mbps: float = 11000.0             #: fsync drain rate (aggregate share)
    node_local_write_mbps: float = 2100.0   #: /dev/shm & /tmp writes

    # -- misc --------------------------------------------------------------------------
    tiny_call_us: int = 3        #: user-side calls (lseek, close)
    syscall_overhead_us: int = 6  #: fixed per-call kernel+ptrace overhead
    jitter_sigma: float = 0.25   #: lognormal sigma on data-path durations
    seed: int = 20240924         #: RNG seed (paper v2 date)

    #: Page-cache block granularity for hit tracking.
    cache_block_bytes: int = 1 << 20


@dataclass
class FileState:
    """Dynamic per-file lock/cache bookkeeping."""

    exists: bool = False
    writer_tokens: set[int] = field(default_factory=set)
    reader_tokens: set[int] = field(default_factory=set)
    open_count: int = 0
    #: opens *initiated* (incremented at syscall entry) — contention is
    #: decided on intents, not completions, so simultaneous openers of
    #: a shared file all pay the revocation except the very first.
    open_intents: int = 0
    dirty_by_rank: dict[int, int] = field(default_factory=dict)
    #: rank -> host that wrote each cache block (for -C cache misses)
    block_writer_host: dict[int, str] = field(default_factory=dict)


class ParallelFS:
    """The filesystem model; all operations are simulation processes.

    Each operation is a generator to be driven via
    ``yield from fs.op(...)`` inside a rank process; the caller measures
    the syscall duration as the simulated time spent inside.
    """

    def __init__(self, sim: Simulator, config: FSConfig | None = None,
                 rng: np.random.Generator | None = None) -> None:
        self.sim = sim
        self.config = config or FSConfig()
        self.rng = rng or np.random.default_rng(self.config.seed)
        self.mds = Resource(sim, self.config.mds_capacity, name="mds")
        self.token_server = Resource(sim, 1, name="token-server")
        self.files: dict[str, FileState] = {}
        #: host -> set of (path, block) resident in that node's cache
        self.page_cache: dict[str, set[tuple[str, int]]] = {}
        #: diagnostics
        self.conflict_stalls = 0
        self.downgrade_stalls = 0

    # -- helpers -----------------------------------------------------------

    def _state(self, path: str) -> FileState:
        state = self.files.get(path)
        if state is None:
            state = FileState()
            self.files[path] = state
        return state

    def _jitter(self, base_us: float) -> int:
        """Log-normal jitter around a base duration, >= 1 µs."""
        factor = float(np.exp(self.rng.normal(
            0.0, self.config.jitter_sigma)))
        return max(1, int(base_us * factor))

    def _transfer_us(self, nbytes: int, mbps: float) -> int:
        return self._jitter(nbytes / mbps)  # bytes / (MB/s) = µs

    def _cache(self, host: str) -> set[tuple[str, int]]:
        return self.page_cache.setdefault(host, set())

    def _blocks(self, offset: int, nbytes: int) -> range:
        block = self.config.cache_block_bytes
        return range(offset // block, (offset + max(nbytes, 1) - 1)
                     // block + 1)

    # -- operations ----------------------------------------------------------

    def open(self, host: str, rank: int, path: str, *,
             create: bool) -> Generator[SimEvent, None, None]:
        """open/openat: metadata service + shared-file token revocation.

        The SSF cost driver: when other ranks already hold write tokens
        on this file, the new opener must revoke the whole-file token
        from every holder — serialized at the token server.
        """
        cfg = self.config
        state = self._state(path)
        prior_intents = state.open_intents
        state.open_intents += 1
        service = (cfg.create_service_us if (create and not state.exists)
                   else cfg.open_service_us)
        yield from self.mds.use(self._jitter(service))
        contended = create and (prior_intents > 0
                                or bool(state.writer_tokens - {rank}))
        if contended:
            # Inode/whole-file token must be revoked from the current
            # holder; serialized at the token server, so the k-th
            # opener of a shared file waits behind k-1 revocations —
            # the linear-in-rank open cost that dominates SSF Load.
            yield from self.token_server.use(
                self._jitter(cfg.shared_open_revoke_us))
        state.exists = True
        state.open_count += 1
        yield self.sim.timeout(cfg.syscall_overhead_us)

    def write(self, host: str, rank: int, path: str, offset: int,
              nbytes: int, *,
              conflict_scale: float = 1.0,
              ) -> Generator[SimEvent, None, None]:
        """write/pwrite64: token acquisition + page-cache memcpy.

        ``conflict_scale`` lets API layers modulate the boundary-
        conflict probability (the POSIX lseek+write split holds tokens
        across two syscalls).
        """
        cfg = self.config
        state = self._state(path)
        if not state.exists:
            raise SimulationError(f"write to non-existent file {path}")
        shared = bool(state.writer_tokens - {rank})
        if rank not in state.writer_tokens:
            # First write by this rank: acquire a byte-range token.
            grant = cfg.token_grant_us
            if shared:
                grant += cfg.token_split_us  # split range off the holders
            yield from self.token_server.use(self._jitter(grant))
            state.writer_tokens.add(rank)
        elif shared and self.rng.random() < (
                cfg.write_conflict_probability * conflict_scale):
            # Boundary token ping-pong with a neighbouring writer.
            self.conflict_stalls += 1
            yield from self.token_server.use(
                self._jitter(cfg.write_conflict_stall_us))
        yield self.sim.timeout(
            cfg.syscall_overhead_us
            + self._transfer_us(nbytes, cfg.page_cache_write_mbps))
        state.dirty_by_rank[rank] = (
            state.dirty_by_rank.get(rank, 0) + nbytes)
        cache = self._cache(host)
        for block in self._blocks(offset, nbytes):
            cache.add((path, block))
            state.block_writer_host[block] = host

    def read(self, host: str, rank: int, path: str, offset: int,
             nbytes: int, *,
             bypass_cache: bool = False,
             ) -> Generator[SimEvent, None, int]:
        """read/pread64: cache hit at memory speed, else storage read.

        Shared files whose target range was written by another rank may
        incur a write→read token downgrade stall — the SSF read-side
        contention. Returns the number of bytes read.
        """
        cfg = self.config
        state = self._state(path)
        if not state.exists:
            raise SimulationError(f"read of non-existent file {path}")
        blocks = list(self._blocks(offset, nbytes))
        cache = self._cache(host)
        cached = (not bypass_cache
                  and all((path, b) in cache for b in blocks))
        shared = bool(state.writer_tokens - {rank})
        if shared:
            foreign = any(state.block_writer_host.get(b) not in (None, host)
                          for b in blocks)
            if foreign and self.rng.random() < \
                    cfg.read_downgrade_probability:
                # Write→read token downgrade: the writer's byte-range
                # token must be downgraded through the token server —
                # serialized, so downgrade bursts pile the readers up
                # (the mc = 96 reading of Fig. 8b's SSF read node).
                self.downgrade_stalls += 1
                yield from self.token_server.use(
                    self._jitter(cfg.read_downgrade_stall_us))
        if cached:
            duration = self._transfer_us(nbytes, cfg.cache_read_mbps)
        else:
            duration = (cfg.storage_read_latency_us
                        + self._transfer_us(nbytes, cfg.storage_read_mbps))
            for block in blocks:
                cache.add((path, block))
        yield self.sim.timeout(cfg.syscall_overhead_us + duration)
        return nbytes

    def fsync(self, host: str, rank: int, path: str,
              ) -> Generator[SimEvent, None, None]:
        """fsync: drain this rank's dirty bytes to storage (-e)."""
        cfg = self.config
        state = self._state(path)
        dirty = state.dirty_by_rank.pop(rank, 0)
        duration = cfg.syscall_overhead_us + (
            self._transfer_us(dirty, cfg.flush_mbps) if dirty else
            cfg.tiny_call_us)
        yield self.sim.timeout(duration)

    def lseek(self) -> Generator[SimEvent, None, None]:
        """lseek: pure user/kernel bookkeeping, no I/O."""
        yield self.sim.timeout(
            self.config.tiny_call_us + self.config.syscall_overhead_us)

    def close(self, host: str, rank: int, path: str,
              ) -> Generator[SimEvent, None, None]:
        """close: descriptor teardown (tokens retained, as in GPFS)."""
        state = self._state(path)
        if state.open_count > 0:
            state.open_count -= 1
        yield self.sim.timeout(
            self.config.tiny_call_us + self.config.syscall_overhead_us)

    def write_node_local(self, nbytes: int,
                         ) -> Generator[SimEvent, None, None]:
        """Write to node-local tmpfs (/dev/shm, /tmp): no tokens."""
        cfg = self.config
        yield self.sim.timeout(
            cfg.syscall_overhead_us
            + self._transfer_us(nbytes, cfg.node_local_write_mbps))
