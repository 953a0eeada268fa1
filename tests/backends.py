"""Pin the scheduler backend of scenario builds.

Scenario builders always construct ``Simulator()`` in auto mode, which
migrates from the heap to the calendar queue once the live event depth
exceeds :data:`repro.sim.engine.AUTO_CALENDAR_DEPTH`.  Patching that
module global to a value from :data:`PINNED_DEPTH` chooses the backend
without a builder argument.
"""

import math

#: AUTO_CALENDAR_DEPTH that pins a backend: -1 migrates to the calendar
#: queue at the first schedule or run; inf keeps the heap.
PINNED_DEPTH = {"heap": math.inf, "calendar": -1}
