"""lindeg: geometry of linear degenerations of partial flag varieties.

Classify a degeneration given by an endomorphism tuple or a rank sequence
(smooth / irreducible / flat / flat-irreducible / well-behaved), compute
dimensions and Gabriel decompositions, walk the orbit poset, locate singular
loci, and validate everything against brute-force enumeration over small
finite fields.
"""

from .errors import *
from .linalg import *
from .representations import *
from .orbits import *
from .classifier import *
from .enumeration import *
from .verification import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += errors.__all__
__all__ += linalg.__all__
__all__ += representations.__all__
__all__ += orbits.__all__
__all__ += classifier.__all__
__all__ += enumeration.__all__
__all__ += verification.__all__
