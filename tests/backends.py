"""Pin the scheduler backend of simulators.

Every ``Simulator()`` starts on the heap and migrates to the calendar
queue once the live event depth exceeds
:data:`repro.sim.engine.AUTO_CALENDAR_DEPTH`.  Patching that module
global to a value from :data:`PINNED_DEPTH` chooses the backend
without a constructor or builder argument.
"""

import math

#: AUTO_CALENDAR_DEPTH that pins a backend: -1 migrates to the calendar
#: queue at the first schedule or run; inf keeps the heap.
PINNED_DEPTH = {"heap": math.inf, "calendar": -1}
