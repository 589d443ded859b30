"""The IOR benchmark workload (Fig. 7-9 of the paper).

Models IOR's segmented file layout (Fig. 7a) and the exact option set
the paper uses (Fig. 7b)::

    srun -n 96 ./strace.sh ./ior -t 1m -b 16m -s 3 -w -r -C -e -o <path>
                              [-F]            # file per process
                              [-a mpiio]      # MPI-IO interface

Each simulated MPI rank runs as a DES process:

1. **Preamble** — dynamic-loader probes and library reads under
   ``$SOFTWARE``, a ``$HOME`` config read, and MPI shared-memory setup
   writes on node-local tmpfs — producing the extra DFG nodes of
   Fig. 8a (``openat/read $SOFTWARE``, ``openat/write Node Local``).
2. **Open** — the shared file (SSF) or a per-rank file (FPP, ``-F``).
3. **Write phase** — ``segments × (block/transfer)`` transfers at the
   Fig. 7a offsets. POSIX: ``lseek`` + ``write`` per transfer; MPI-IO:
   ``pwrite64`` (plus one initial probe ``lseek``), matching the
   paper's Fig. 9 observation that MPI-IO folds the seek into the call.
4. **fsync** (``-e``) — flush before reading.
5. **Read phase** — with ``-C``, each rank reads the data written by a
   rank on the neighboring node, defeating the local page cache.
6. **close**.

MPI barriers separate the phases; barrier-exit skew plus log-normal
service jitter desynchronizes ranks, which is what keeps the FPP
max-concurrency well below 96 while SSF token queues pile everyone up
(the paper's ``96x`` vs ``29x`` DR annotations in Fig. 8b).

``fsync`` is always *executed* (when ``-e``) but only appears in trace
files if listed in the strace ``-e`` call set — exactly like the
paper's experiments, which trace openat/read/write variants (exp. A)
plus lseek (exp. B) but never fsync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from repro._util.errors import SimulationError
from repro._util.timefmt import parse_wallclock
from repro.simulate.fdtable import FdTable
from repro.simulate.filesystem import FSConfig, ParallelFS
from repro.simulate.kernel import SimEvent, Simulator
from repro.simulate.recording import ProcessRecorder
from repro.simulate.resources import Barrier

#: Site-variable mapping for the simulated JUWELS-like paths — the
#: paper's f̄ "abstracts the file paths based on site-specific
#: variable" (Sec. V); pass to
#: :class:`~repro.core.mapping.SiteVariables`.
JUWELS_SITE_VARIABLES: dict[str, tuple[str, ...]] = {
    "$SCRATCH": ("/p/scratch",),
    "$HOME": ("/p/home",),
    "$SOFTWARE": ("/p/software",),
    "Node Local": ("/dev/shm", "/tmp"),
}

#: Library names probed/loaded by the simulated dynamic loader.
_PRELOAD_LIBS = (
    "libmpi.so.40", "libopen-pal.so.40", "libpsm2.so.2",
    "libnuma.so.1",
)


@dataclass
class IORConfig:
    """The IOR option model (paper Fig. 7b) plus simulation knobs."""

    # -- IOR options ---------------------------------------------------------
    ranks: int = 96                      #: srun -n
    ranks_per_node: int = 48             #: cores per node (2 nodes default)
    transfer_size: int = 1 << 20         #: -t 1m
    block_size: int = 16 << 20           #: -b 16m
    segments: int = 3                    #: -s 3
    do_write: bool = True                #: -w
    do_read: bool = True                 #: -r
    reorder_tasks: bool = True           #: -C
    fsync: bool = True                   #: -e
    file_per_process: bool = False       #: -F
    api: str = "posix"                   #: -a posix | mpiio
    test_file: str = "/p/scratch/ssf/test"   #: -o (paper: $SCRATCH/ssf)

    # -- identity / tracing -------------------------------------------------------
    cid: str = "ssf"
    host_prefix: str = "node"
    base_rid: int = 20000
    pid_offset: int = 3                  #: traced child pid = rid + offset
    start_wallclock_us: int = field(
        default_factory=lambda: parse_wallclock("09:15:00.000000"))

    # -- preamble --------------------------------------------------------------------
    preamble: bool = True
    preamble_probes: int = 18            #: failed $SOFTWARE openat probes
    node_local_writes: int = 12          #: MPI shm setup writes per rank

    # -- simulation ---------------------------------------------------------------------
    barrier_exit_skew_us: int = 2500     #: uniform post-barrier skew
    #: user-space time between data transfers (buffer prep/validation in
    #: IOR); this is what keeps the FPP max-concurrency well below the
    #: rank count while SSF token queues still pile everyone up.
    inter_op_user_us: int = 1100
    seed: int = 4242

    def __post_init__(self) -> None:
        if self.api not in ("posix", "mpiio"):
            raise SimulationError(f"unknown api {self.api!r}")
        if self.block_size % self.transfer_size != 0:
            raise SimulationError(
                "block size must be a multiple of transfer size")
        if self.ranks < 1 or self.ranks_per_node < 1:
            raise SimulationError("ranks and ranks_per_node must be >= 1")

    @property
    def transfers_per_block(self) -> int:
        return self.block_size // self.transfer_size

    @property
    def n_nodes(self) -> int:
        return -(-self.ranks // self.ranks_per_node)

    def host_of(self, rank: int) -> str:
        return f"{self.host_prefix}{rank // self.ranks_per_node + 1:02d}"

    def file_of(self, rank: int) -> str:
        """Data file accessed by ``rank`` (IOR's ``.%08d`` FPP suffix)."""
        if self.file_per_process:
            return f"{self.test_file}.{rank:08d}"
        return self.test_file

    def write_offset(self, rank: int, segment: int, transfer: int) -> int:
        """Fig. 7a layout: segment-major, rank-block interleaved (SSF);
        contiguous per-file (FPP)."""
        if self.file_per_process:
            return (segment * self.block_size
                    + transfer * self.transfer_size)
        return (segment * self.ranks * self.block_size
                + rank * self.block_size
                + transfer * self.transfer_size)

    def read_source_rank(self, rank: int) -> int:
        """The rank whose data ``rank`` reads back.

        ``-C`` shifts by one node's worth of ranks "to read the data
        written by a process from the neighboring node" (Sec. V-A).
        """
        if not self.reorder_tasks:
            return rank
        return (rank + self.ranks_per_node) % self.ranks


@dataclass
class IORResult:
    """Everything a bench needs from one simulated IOR run."""

    config: IORConfig
    recorders: list[ProcessRecorder]
    sim: Simulator
    fs: ParallelFS

    @property
    def makespan_us(self) -> int:
        """Total simulated wall time of the run."""
        return self.sim.now

    def total_syscalls(self) -> int:
        return sum(len(r.records) for r in self.recorders)


def _rank_process(
    sim: Simulator,
    fs: ParallelFS,
    cfg: IORConfig,
    rank: int,
    recorder: ProcessRecorder,
    barrier: Barrier,
    rng: np.random.Generator,
) -> Generator[SimEvent, None, None]:
    """The life of one MPI rank."""
    host = cfg.host_of(rank)
    fdt = FdTable()

    def record(call: str, start: int, **kwargs) -> None:
        recorder.record(call=call, start_us=cfg.start_wallclock_us + start,
                        dur_us=sim.now - start, **kwargs)

    def skew() -> SimEvent:
        return sim.timeout(int(rng.integers(0, cfg.barrier_exit_skew_us)))

    def tiny() -> SimEvent:
        return sim.timeout(int(rng.integers(2, 30)))

    def think() -> SimEvent:
        lo = cfg.inter_op_user_us // 2
        hi = max(lo + 1, cfg.inter_op_user_us * 3 // 2)
        return sim.timeout(int(rng.integers(lo, hi)))

    # ---- 1. preamble: loader + MPI runtime startup --------------------------
    if cfg.preamble:
        yield sim.timeout(int(rng.integers(0, 1500)))
        software = "/p/software/stages/2024/software"
        for i in range(cfg.preamble_probes):
            lib = _PRELOAD_LIBS[i % len(_PRELOAD_LIBS)]
            probe = f"{software}/probe-{i % 6}/{lib}"
            start = sim.now
            yield tiny()
            record("openat", start, path=probe,
                   args_hint="O_RDONLY|O_CLOEXEC")  # ret_fd None -> ENOENT
        for lib in _PRELOAD_LIBS:
            path = f"{software}/OpenMPI/lib/{lib}"
            start = sim.now
            yield tiny()
            fd = fdt.allocate(path)
            record("openat", start, path=path, ret_fd=fd,
                   args_hint="O_RDONLY|O_CLOEXEC")
            for requested, size in ((832, 832), (784, 784)):
                start = sim.now
                yield tiny()
                record("read", start, path=path, fd=fd,
                       requested=requested, size=size)
            start = sim.now
            yield from fs.lseek()
            record("lseek", start, path=path, fd=fd, args_hint="0",
                   retval=0)
            start = sim.now
            yield tiny()
            record("read", start, path=path, fd=fd, requested=4096,
                   size=4096)
            fdt.release(fd)
        home = "/p/home/user/.mpi.conf"
        start = sim.now
        yield tiny()
        fd = fdt.allocate(home)
        record("openat", start, path=home, ret_fd=fd,
               args_hint="O_RDONLY")
        fdt.release(fd)
        # MPI shared-memory segments on node-local tmpfs.
        for base, count in ((f"/dev/shm/psm2_shm.{rank}",
                             cfg.node_local_writes // 2),
                            (f"/tmp/ompi.{host}.0/session.{rank}",
                             cfg.node_local_writes
                             - cfg.node_local_writes // 2)):
            start = sim.now
            yield tiny()
            fd = fdt.allocate(base)
            record("openat", start, path=base, ret_fd=fd,
                   args_hint="O_RDWR|O_CREAT, 0600")
            start = sim.now
            yield from fs.lseek()
            record("lseek", start, path=base, fd=fd, args_hint="0",
                   retval=0)
            for _ in range(count):
                nbytes = 64 << 10
                start = sim.now
                yield from fs.write_node_local(nbytes)
                record("write", start, path=base, fd=fd,
                       requested=nbytes, size=nbytes)
            fdt.release(fd)

    # ---- 2. open the data file --------------------------------------------------
    yield barrier.wait()
    yield skew()
    path = cfg.file_of(rank)
    start = sim.now
    yield from fs.open(host, rank, path, create=True)
    fd = fdt.allocate(path)
    record("openat", start, path=path, ret_fd=fd,
           args_hint="O_WRONLY|O_CREAT, 0664")

    conflict_scale = 1.25 if cfg.api == "posix" else 1.0
    if cfg.api == "mpiio":
        # ROMIO probes the file once (size check) — the single lseek
        # per rank that keeps lseek:$SCRATCH a *shared* node in Fig. 9.
        start = sim.now
        yield from fs.lseek()
        record("lseek", start, path=path, fd=fd, args_hint="0", retval=0)

    # ---- 3. write phase -------------------------------------------------------------
    yield barrier.wait()
    yield skew()
    if cfg.do_write:
        for segment in range(cfg.segments):
            for transfer in range(cfg.transfers_per_block):
                yield think()
                offset = cfg.write_offset(rank, segment, transfer)
                if cfg.api == "posix":
                    start = sim.now
                    yield from fs.lseek()
                    record("lseek", start, path=path, fd=fd,
                           args_hint=str(offset), retval=offset)
                start = sim.now
                yield from fs.write(host, rank, path, offset,
                                    cfg.transfer_size,
                                    conflict_scale=conflict_scale)
                call = "write" if cfg.api == "posix" else "pwrite64"
                record(call, start, path=path, fd=fd,
                       requested=cfg.transfer_size,
                       size=cfg.transfer_size,
                       args_hint=(None if cfg.api == "posix"
                                  else str(offset)))
        if cfg.fsync:
            start = sim.now
            yield from fs.fsync(host, rank, path)
            record("fsync", start, path=path, fd=fd)

    # ---- 4. read phase ------------------------------------------------------------------
    yield barrier.wait()
    yield skew()
    if cfg.do_read:
        source = cfg.read_source_rank(rank)
        # FPP + -C: reads must not be served by the local page cache
        # (the paper's Fig. 8b shows a single openat per rank, so no
        # cross-file reopen is modelled).
        bypass = cfg.reorder_tasks and cfg.file_per_process
        for segment in range(cfg.segments):
            for transfer in range(cfg.transfers_per_block):
                yield think()
                offset = cfg.write_offset(source, segment, transfer)
                if cfg.api == "posix":
                    start = sim.now
                    yield from fs.lseek()
                    record("lseek", start, path=path, fd=fd,
                           args_hint=str(offset), retval=offset)
                start = sim.now
                yield from fs.read(host, rank, path, offset,
                                   cfg.transfer_size, bypass_cache=bypass)
                call = "read" if cfg.api == "posix" else "pread64"
                record(call, start, path=path, fd=fd,
                       requested=cfg.transfer_size,
                       size=cfg.transfer_size,
                       args_hint=(None if cfg.api == "posix"
                                  else str(offset)))

    # ---- 5. close ------------------------------------------------------------------------
    start = sim.now
    yield from fs.close(host, rank, path)
    fdt.release(fd)
    record("close", start, path=path, fd=fd)


def simulate_ior(
    config: IORConfig | None = None,
    fs_config: FSConfig | None = None,
) -> IORResult:
    """Run one simulated IOR invocation; returns recorders + the model.

    Deterministic for a fixed (config.seed, fs_config.seed).
    """
    cfg = config or IORConfig()
    sim = Simulator()
    fs = ParallelFS(sim, fs_config or FSConfig(),
                    rng=np.random.default_rng(
                        (fs_config or FSConfig()).seed))
    barrier = Barrier(sim, cfg.ranks, name="mpi-barrier")
    recorders: list[ProcessRecorder] = []
    master_rng = np.random.default_rng(cfg.seed)
    for rank in range(cfg.ranks):
        rid = cfg.base_rid + rank
        recorder = ProcessRecorder(
            cid=cfg.cid, host=cfg.host_of(rank), rid=rid,
            pid=rid + cfg.pid_offset)
        recorders.append(recorder)
        rank_rng = np.random.default_rng(master_rng.integers(0, 2**63))
        sim.process(
            _rank_process(sim, fs, cfg, rank, recorder, barrier, rank_rng),
            name=f"rank-{rank}")
    sim.run()
    if not sim.all_done():
        raise SimulationError(
            "IOR simulation deadlocked: not all ranks completed "
            "(barrier starvation?)")
    return IORResult(config=cfg, recorders=recorders, sim=sim, fs=fs)
