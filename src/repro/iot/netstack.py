"""The TCP/IP compartment's cost model.

"Every network packet that is sent and received is a separate heap
allocation, protected by temporal safety" (paper section 7.2.3).  The
TCP/IP stage itself lives in :class:`repro.iot.sessions.NetPipeline`;
this module holds the per-packet and per-byte charges it applies in
its two receive disciplines:

* copying — the frame body is copied into a freshly ``malloc``'d
  buffer through its capability (6 cycles/byte, the load+store pair,
  checksum folded into the copy loop);
* zero-copy — the frame is validated *in place* (2 cycles/byte,
  load+accumulate only) and the stage hands up a ``csetbounds``-narrowed
  view of the same buffer covering exactly the body.
"""

#: Per-packet protocol processing beyond the copy (header parse, TCP
#: state machine update, ACK generation) in cycles.
CYCLES_PER_PACKET = 1400
#: Copy cost per byte into the heap buffer (load+store through caps);
#: the framing checksum is folded into the copy loop.
CYCLES_PER_BYTE = 6
#: In-place validation cost per byte (load+accumulate, no store) on the
#: zero-copy path, which never re-materialises the body.
CYCLES_PER_BYTE_VALIDATE = 2
