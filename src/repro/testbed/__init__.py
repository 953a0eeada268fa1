"""Dummynet-style test-bed emulation (Section 4.2, Figs. 11-12).

The paper's second validation platform is a physical test-bed: Linux
hosts generating Iperf TCP flows through a FreeBSD Dummynet box that
emulates a 10 Mb/s, 150 ms pipe with a RED queue sized by the
rule-of-thumb ``B = RTT × R_bottle``.  Dummynet itself is a software
link emulator, so this package emulates the same abstraction over the
packet engine:

* :mod:`repro.testbed.dummynet` -- pipe configuration and the Fig. 11
  topology builder;
* :mod:`repro.testbed.iperf` -- an Iperf-like bulk-TCP workload with
  interval bandwidth reports.

Host parameters follow Section 4.2: TCP NewReno with delayed ACKs
(d = 2) and Linux's 200 ms minimum RTO.
"""

from repro.testbed.dummynet import DummynetPipe, TestbedConfig, build_testbed
from repro.testbed.iperf import IperfClient, IperfReport

__all__ = [
    "DummynetPipe",
    "IperfClient",
    "IperfReport",
    "TestbedConfig",
    "build_testbed",
]
