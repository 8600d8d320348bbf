"""One table of bad caller input across the entry points.

Each kind of input has one check in groebner: as_vector (a vector of
the ambient free module), as_relations (a relation list over S),
as_ideal (a rank-1 submodule) and check_same_ring (two objects over one
quotient ring). Every row hands one entry point one bad input and pins
the exact error class it raises.
"""

import pytest

from ghk.arith import PolyRing
from ghk.errors import GhkError, RingMismatchError
from ghk.frobmod import Presentation, direct_sum, hk_value, presentation_of_quotient
from ghk.groebner import COMP_BITS, ModVector, Submodule
from ghk.idealops import RingSpec, bracket_power, colon, reflexive_hull, sheaf_degree

S7 = PolyRing(7, ["x", "y"])
S5 = PolyRing(5, ["x", "y"])
R7 = RingSpec(7, ["x", "y"])
R5 = RingSpec(5, ["x", "y"])
x7, y7 = S7.gens()
x5, y5 = S5.gens()
I7 = Submodule.ideal(S7, [x7, y7])
I5 = Submodule.ideal(S5, [x5])
M7 = Submodule(S7, 2, [ModVector((x7, y7))])


def point(rspec, ideal):
    return presentation_of_quotient(ideal, rspec)


BAD_INPUTS = [
    # Submodule generators and relations
    ("generator over F_5", lambda: Submodule.ideal(S7, [x5]), RingMismatchError),
    ("generator of rank 2", lambda: Submodule(S7, 1, [ModVector((x7, y7))]), RingMismatchError),
    ("bare Poly in rank 2", lambda: Submodule(S7, 2, [x7]), RingMismatchError),
    ("generator that is an int", lambda: Submodule(S7, 1, [5]), GhkError),
    ("relation over F_5", lambda: Submodule.ideal(S7, [x7], relations=[x5 * y5]), RingMismatchError),
    ("one twist for rank 2", lambda: Submodule(S7, 2, [], twists=[0]), GhkError),
    ("rank past the component field", lambda: Submodule(S7, 1 << COMP_BITS, []), GhkError),
    # containment of a submodule
    ("contains_submodule of a Poly", lambda: I7.contains_submodule(x7), GhkError),
    ("contains_submodule of rank 2", lambda: I7.contains_submodule(M7), RingMismatchError),
    (
        "contains_submodule of other twists",
        lambda: I7.contains_submodule(Submodule(S7, 1, [x7], twists=[1])),
        RingMismatchError,
    ),
    # a basis as a reducer
    ("contains over F_5", lambda: I7.groebner().contains(x5), RingMismatchError),
    ("contains of rank 2", lambda: I7.groebner().contains(ModVector((x7, y7))), RingMismatchError),
    ("normal_form over F_5", lambda: I7.groebner().normal_form(ModVector((x5,))), RingMismatchError),
    ("normal_form of rank 2", lambda: M7.groebner().normal_form(x7), RingMismatchError),
    # vectors
    ("empty vector", lambda: ModVector(()), GhkError),
    ("vector entry that is an int", lambda: ModVector((x7, 5)), GhkError),
    ("vector entries over F_7 and F_5", lambda: ModVector((x7, x5)), RingMismatchError),
    ("subtraction over F_5", lambda: ModVector((x7,)) - ModVector((x5,)), RingMismatchError),
    ("subtraction of rank 2", lambda: ModVector((x7,)) - ModVector((x7, y7)), RingMismatchError),
    ("subtraction of an int", lambda: ModVector((x7,)) - 5, GhkError),
    # presentations
    ("column over F_5", lambda: Presentation(R7, (0,), (1,), [ModVector((x5,))]), RingMismatchError),
    ("column of length 2", lambda: Presentation(R7, (0,), (1,), [ModVector((x7, y7))]), RingMismatchError),
    ("quotient of an F_5 ideal", lambda: point(R7, I5), RingMismatchError),
    ("quotient of a rank-2 module", lambda: point(R7, M7), GhkError),
    ("direct sum over F_5 and F_7", lambda: direct_sum(point(R7, I7), point(R5, I5)), RingMismatchError),
    # colon divisors
    ("colon by an F_5 ideal", lambda: colon(I7, I5), RingMismatchError),
    ("colon by F_5 polynomials", lambda: colon(I7, [x7, x5]), RingMismatchError),
    ("colon by an F_5 polynomial", lambda: colon(I7, x5), RingMismatchError),
    ("colon by a rank-2 module", lambda: colon(I7, M7), GhkError),
    # operations that need an ideal
    ("bracket power of a rank-2 module", lambda: bracket_power(M7, 7), GhkError),
    ("reflexive hull of a rank-2 module", lambda: reflexive_hull(M7), GhkError),
    ("hk_value of a rank-2 module", lambda: hk_value(M7, 1), GhkError),
    ("sheaf degree of a rank-2 module", lambda: sheaf_degree(R7, M7), GhkError),
    ("sheaf degree of an F_5 ideal", lambda: sheaf_degree(R7, I5), RingMismatchError),
    # ring specifications
    ("RingSpec relation over F_5", lambda: RingSpec(7, ["x", "y"], [x5 * y5]), RingMismatchError),
    ("RingSpec relation that is an int", lambda: RingSpec(7, ["x", "y"], [5]), GhkError),
    # a bare string is one relation or generator, not a list of letters
    ("RingSpec relations as one string", lambda: RingSpec(7, ["x", "y"], "xy"), GhkError),
    ("RingSpec ideal of one string", lambda: R7.ideal("xy"), GhkError),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in BAD_INPUTS], ids=[row[0] for row in BAD_INPUTS])
def test_bad_input_raises_its_error_class(call, error):
    with pytest.raises(GhkError) as info:
        call()
    assert info.type is error


def test_sheaf_degree_refuses_an_ideal_over_another_prime():
    # both rings have no relations, so comparing the relations alone
    # let the F_5 ideal (x) through and returned -1
    with pytest.raises(RingMismatchError):
        sheaf_degree(RingSpec(7, ["x", "y"]), Submodule.ideal(S5, [x5]))
    assert sheaf_degree(R7, Submodule.ideal(S7, [x7])) == -1


@pytest.mark.parametrize(
    "form",
    [lambda: ModVector((x7,)), lambda: x7, lambda: (x7,), lambda: [x7], lambda: iter([x7])],
    ids=["ModVector", "Poly", "tuple", "list", "iterator"],
)
def test_every_entry_point_takes_the_same_vector_forms(form):
    # as_vector is the one rule; form() makes a fresh value, since an
    # iterator is consumed once
    assert Submodule.ideal(S7, [form()]).gens == (ModVector((x7,)),)
    assert I7.groebner().contains(form())
    assert I7.groebner().normal_form(form()).is_zero()
    assert (ModVector((x7,)) - form()).is_zero()
    assert Presentation(R7, (0,), (1,), [form()]).columns == (ModVector((x7,)),)
