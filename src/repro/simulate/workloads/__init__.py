"""The paper's workloads, as trace generators.

- :mod:`repro.simulate.workloads.ls` — the ``ls`` / ``ls -l`` example
  of Fig. 1-5: deterministic startup-I/O templates matching the
  paper's Fig. 2 traces, staggered across ranks so the Fig. 5
  max-concurrency reading (mc = 2 for ``read:/usr/lib`` over Cb)
  reproduces.
- :mod:`repro.simulate.workloads.ior` — the IOR benchmark of Fig. 7-9:
  a full option model (``-t -b -s -w -r -C -e -F -a posix|mpiio -o``)
  driving simulated MPI ranks against the
  :class:`~repro.simulate.filesystem.ParallelFS` model.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "LsConfig",
    "simulate_ls",
    "generate_fig1_traces",
    "IORConfig",
    "IORResult",
    "simulate_ior",
    "JUWELS_SITE_VARIABLES",
    "CheckpointConfig",
    "CheckpointResult",
    "simulate_checkpoint",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.simulate.workloads.ls": ("LsConfig", "simulate_ls",
                                    "generate_fig1_traces"),
    "repro.simulate.workloads.ior": ("IORConfig", "IORResult", "simulate_ior",
                                     "JUWELS_SITE_VARIABLES"),
    "repro.simulate.workloads.checkpoint": ("CheckpointConfig",
                                            "CheckpointResult",
                                            "simulate_checkpoint"),
})
