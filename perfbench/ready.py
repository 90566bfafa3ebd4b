"""Set-up child: import v2xcast, load and validate a config, print "ready".

run.py starts this several times and times each start up to the "ready"
line, so setup_s covers interpreter start, the numpy import and config
validation: everything before the first run can begin.

Usage: python3 perfbench/ready.py SRC_DIR CONFIG_FILE
"""

import sys

sys.path.insert(0, sys.argv[1])

from v2xcast.params import load_config  # noqa: E402

load_config(sys.argv[2])
print("ready", flush=True)
