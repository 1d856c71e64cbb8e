"""Test isolation for process-wide telemetry state.

Instrumented components (the Falco engine's ``falco_events_total``, every
bus built without an explicit registry) write into the process-wide
default registry, and the telemetry switch is global. Without a reset, a
test's series and a switch left off would leak into the tests after it.
"""

import pytest

from repro.common import telemetry


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """After each test: forget the default registry and restore the
    telemetry switch to what it was before the test."""
    enabled = telemetry.telemetry_enabled()
    yield
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(enabled)
