"""Interconnect substrate: crossbar timing, per-design topologies, DSENT-like models."""

from repro.noc.crossbar import Crossbar
from repro.noc.dsent import CrossbarShape, DsentModel
from repro.noc.topology import NoCTopology

__all__ = ["Crossbar", "CrossbarShape", "DsentModel", "NoCTopology"]
