"""Reproduction of "OS Support for P2P Programming: a Case for TPS" (ICDCS 2002).

This package provides a full, from-scratch Python reproduction of the system
described in the paper by Baehni, Eugster and Guerraoui:

* :mod:`repro.net` -- a discrete-event simulated wide-area network substrate
  (nodes, links, transports, firewalls, metrics) standing in for the paper's
  FastEthernet testbed of Sun Ultra 10 machines.
* :mod:`repro.serialization` -- XML and binary object codecs used for
  advertisements and application events.
* :mod:`repro.jxta` -- a JXTA-like peer-to-peer substrate: IDs, peers, peer
  groups, pipes, advertisements, messages, the four JXTA protocols TPS
  relies on (PDP, PRP, PBP, ERP) and the many-to-many WIRE service.
* :mod:`repro.core` -- the paper's contribution: a Type-based
  Publish/Subscribe (TPS) layer built on top of the JXTA substrate.
* :mod:`repro.apps` -- the ski-rental testbed application written three ways
  (SR-TPS, SR-JXTA, raw JXTA-WIRE), as in the paper's Sections 4 and 5.
* :mod:`repro.bench` -- the benchmark harness that regenerates the paper's
  Figures 18, 19 and 20 and the Section 4.4 programming-effort comparison.

Quickstart
----------

>>> from repro import tps_network
>>> from repro.core import TPSEngine
>>> class Greeting:
...     def __init__(self, text):
...         self.text = text
>>> net = tps_network(peers=2)
>>> pub = TPSEngine(Greeting, peer=net.peer(0))
>>> sub = TPSEngine(Greeting, peer=net.peer(1))
>>> pub_if = pub.new_interface("JXTA")
>>> sub_if = sub.new_interface("JXTA")
>>> received = []
>>> sub_if.subscribe(lambda g: received.append(g.text))
>>> net.settle()
>>> pub_if.publish(Greeting("hello, peers"))
>>> net.settle()
>>> received
['hello, peers']
"""

from __future__ import annotations

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "_version": ("__version__",),
        "testbed": ("TPSNetwork", "tps_network"),
    },
)
