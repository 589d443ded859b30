"""Discrete-event simulation of HPC I/O workloads (testbed substitute).

The paper's experiments run IOR on the JUWELS cluster against a GPFS
file system, traced with strace (Sec. V). Neither the machine nor the
benchmark binary is available here, so this subpackage provides the
closest synthetic equivalent that exercises the *identical* analysis
code path: simulated MPI ranks issue POSIX / MPI-IO system calls
against a parallel-filesystem model, and the resulting per-rank syscall
records are written out as byte-faithful strace text which then flows
through the normal parse → store → DFG pipeline.

Components:

- :mod:`repro.simulate.kernel` — a minimal generator-based
  discrete-event simulator (events, timeouts, processes).
- :mod:`repro.simulate.resources` — FIFO resources, barriers.
- :mod:`repro.simulate.fdtable` — per-process descriptor tables.
- :mod:`repro.simulate.filesystem` — the GPFS-like model: metadata
  server, byte-range token/lock manager (the SSF contention mechanism),
  shared-bandwidth storage targets, per-node page cache (defeated by
  IOR ``-C``, as in the paper).
- :mod:`repro.simulate.recording` — syscall records accumulated per
  simulated process.
- :mod:`repro.simulate.strace_writer` — renders records as strace
  ``-f -tt -T -y`` text (incl. optional ``<unfinished ...>`` splits).
- :mod:`repro.simulate.workloads` — the paper's workloads: ``ls`` /
  ``ls -l`` (Fig. 1-5) and IOR with ``-t -b -s -w -r -C -e -F -a``
  (Fig. 7-9).

The fidelity target is *shape*, not absolute timing: the Fig. 8/9
benchmarks assert orderings and coarse ratios, never the testbed's
absolute loads.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "Simulator",
    "SimEvent",
    "Process",
    "Resource",
    "Barrier",
    "FdTable",
    "SyscallRecord",
    "ProcessRecorder",
    "FSConfig",
    "ParallelFS",
    "write_strace_text",
    "write_trace_files",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.simulate.kernel": ("Simulator", "SimEvent", "Process"),
    "repro.simulate.resources": ("Resource", "Barrier"),
    "repro.simulate.fdtable": ("FdTable",),
    "repro.simulate.recording": ("SyscallRecord", "ProcessRecorder"),
    "repro.simulate.filesystem": ("FSConfig", "ParallelFS"),
    "repro.simulate.strace_writer": ("write_strace_text", "write_trace_files"),
})
