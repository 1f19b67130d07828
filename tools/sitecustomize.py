"""Start the reach recorder (``tools/reach.py``) in this process when
``REACH_DIR`` names a dump directory; do nothing otherwise."""

import os

if os.environ.get("REACH_DIR"):
    import reach

    reach.install(os.environ["REACH_DIR"])
