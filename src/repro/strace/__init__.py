"""strace trace-record substrate (Sec. III of the paper).

This subpackage turns raw ``strace`` output — recorded with
``strace -f -e <calls> -tt -T -y -o <cid>_<host>_<rid>.st`` — into
structured records carrying exactly the event attributes the paper
parses: *pid*, *call*, *start*, *dur*, *fp*, *size*, with the file-level
attributes *cid*, *host*, *rid* recovered from the trace-file name.

Layering (bottom → top):

- :mod:`repro.strace.syscalls` — catalog of I/O system calls: which
  argument carries the ``fd</path>`` annotation, which calls report a
  transfer size, read/write classification.
- :mod:`repro.strace.tokenizer` — splits a physical line into pid,
  timestamp and body, and classifies the record kind (syscall,
  unfinished, resumed, signal, exit).
- :mod:`repro.strace.parser` — parses a complete syscall line or body
  into the seven record fields (pid, start, call, fp, size, dur,
  errno): one anchored regex for the common I/O shape, a
  quote/bracket-aware scan for everything else.
- :mod:`repro.strace.resume` — the one merger: parses each line as it
  arrives, merges ``<unfinished ...>`` with ``<... resumed>`` partners
  (matched by pid, per the paper) and drops ``ERESTARTSYS``-interrupted
  calls.
- :mod:`repro.strace.naming` — the ``<cid>_<host>_<rid>.st`` trace-file
  naming convention of Fig. 1.
- :mod:`repro.strace.reader` — reads files/directories into
  per-case record lists ready for event-log construction. Reading
  streams (one line in memory at a time, via
  :mod:`repro.ingest.streaming`) and directories can be parsed on a
  process pool (``workers=``, via :mod:`repro.ingest.parallel`).
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "SyscallSpec",
    "SyscallFamily",
    "SYSCALL_CATALOG",
    "DEFAULT_IO_CALLS",
    "is_transfer_call",
    "transfer_direction",
    "spec_for",
    "RecordKind",
    "Token",
    "tokenize_line",
    "ParsedRecord",
    "parse_line",
    "parse_body",
    "IncrementalMerger",
    "merge_unfinished",
    "MergeStats",
    "TraceFileName",
    "parse_trace_filename",
    "format_trace_filename",
    "TraceCase",
    "discover_trace_files",
    "read_trace_file",
    "read_trace_records",
    "read_trace_dir",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.strace.syscalls": ("SyscallSpec", "SyscallFamily",
                              "SYSCALL_CATALOG", "DEFAULT_IO_CALLS",
                              "is_transfer_call", "transfer_direction",
                              "spec_for"),
    "repro.strace.tokenizer": ("RecordKind", "Token", "tokenize_line"),
    "repro.strace.parser": ("ParsedRecord", "parse_line", "parse_body"),
    "repro.strace.resume": ("IncrementalMerger", "merge_unfinished",
                            "MergeStats"),
    "repro.strace.naming": ("TraceFileName", "parse_trace_filename",
                            "format_trace_filename"),
    "repro.strace.reader": ("TraceCase", "discover_trace_files",
                            "read_trace_file", "read_trace_records",
                            "read_trace_dir"),
})
