"""Timing-simulation substrate: event engine, reservation servers, system wiring."""

from repro.sim.config import (
    GPUConfig,
    SimConfig,
    sanitize_env_enabled,
    watchdog_env_enabled,
)
from repro.sim.engine import Engine
from repro.sim.profiler import EventProfiler, ProfileRow, profile_simulation
from repro.sim.resources import Server
from repro.sim.results import NON_IDENTITY_FIELDS, SimResult, identity_manifest
from repro.sim.store import (
    CACHE_SCHEMA_VERSION,
    DiskResultCache,
    cache_key_manifest,
    sim_cache_key,
)
from repro.sim.system import GPUSystem, simulate
from repro.sim.validation import GridValidationError, validate_grid
from repro.sim.watchdog import (
    SimStallError,
    StallWatchdog,
    WaitGraph,
    build_wait_graph,
)

__all__ = [
    "GPUConfig",
    "SimConfig",
    "sanitize_env_enabled",
    "watchdog_env_enabled",
    "NON_IDENTITY_FIELDS",
    "identity_manifest",
    "cache_key_manifest",
    "Engine",
    "EventProfiler",
    "ProfileRow",
    "profile_simulation",
    "Server",
    "SimResult",
    "CACHE_SCHEMA_VERSION",
    "DiskResultCache",
    "sim_cache_key",
    "GPUSystem",
    "simulate",
    "GridValidationError",
    "validate_grid",
    "SimStallError",
    "StallWatchdog",
    "WaitGraph",
    "build_wait_graph",
]
