import sys
from pathlib import Path

# the benchmark's modules are scripts that import each other by bare name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
