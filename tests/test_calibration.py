"""The recorded calibration constants are what the recording script observes."""

import importlib.util
from pathlib import Path

from gaborlab import calibration

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "record_calibration.py"


def test_record_reproduces_calibration():
    spec = importlib.util.spec_from_file_location("record_calibration", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.record() == calibration.CALIBRATION
