"""Multi-agent grid coverage with trust-gated communication.

A deterministic coverage environment, an exact local value oracle standing
in for a learned critic, scripted message falsification, and a
theory-of-mind trust defense that judges peers by whether their actions
match their claimed observations.
"""

__version__ = "0.1.0"
