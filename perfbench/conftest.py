import sys
from pathlib import Path

# the benchmark's tests import the package from the checkout, as run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
