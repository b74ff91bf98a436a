from lineparadox.freegroup import MINUS, OMEGA, PLUS, WordClass
from lineparadox.labeling import VertexLabeling
from lineparadox.render import (
    OVERFLOW_COLOR,
    PALETTE,
    cayley_ball_dot,
    class_color,
    function_graph_lines,
    line_strip_lines,
)
from lineparadox.rigid import Piece


def test_class_colors_fixed_for_rank2():
    assert class_color(WordClass(1, PLUS)) == PALETTE[0]  # A
    assert class_color(WordClass(1, MINUS)) == PALETTE[1]  # B
    assert class_color(WordClass(2, PLUS)) == PALETTE[2]  # C
    assert class_color(WordClass(2, MINUS)) == PALETTE[3]  # D


def test_class_colors_cycle_beyond_palette():
    assert class_color(WordClass(5, PLUS)) == PALETTE[0]
    assert class_color(WordClass(5, MINUS)) == PALETTE[1]
    assert OVERFLOW_COLOR not in PALETTE


def test_function_graph_empty_window():
    svg = "\n".join(function_graph_lines([], 0, 3)) + "\n"
    assert svg.startswith("<svg ")
    assert "<circle" not in svg
    assert 'stroke="#555555"' in svg  # axes pass through the window


def test_function_graph_integer_lattice_only():
    pieces = [Piece(n, n % 3 - 1) for n in range(-2, 5)]
    svg = "\n".join(function_graph_lines(pieces, -2, 5)) + "\n"
    body = svg.replace("http://www.w3.org/2000/svg", "")
    assert "." not in body  # every coordinate lands on the pixel grid
    assert svg.count("<circle") == len(pieces)


def test_line_strip_legend_order():
    cells = [
        (0, WordClass(2, MINUS)),  # D
        (1, None),  # overflow
        (2, WordClass(1, PLUS)),  # A
        (3, WordClass(2, MINUS)),
    ]
    svg = "\n".join(line_strip_lines(cells, len(cells), 2)) + "\n"
    a = svg.index(">A<")
    d = svg.index(">D<")
    other = svg.index(">other<")
    assert a < d < other
    assert svg.count('height="40"') == 4


def test_line_strip_omega_names():
    cells = [(0, WordClass(1, MINUS)), (1, WordClass(3, PLUS))]
    svg = "\n".join(line_strip_lines(cells, len(cells), OMEGA)) + "\n"
    assert ">B_1<" in svg
    assert ">A_3<" in svg
    # By pair number, not by name: A_10 comes after B_2.
    cells = [(0, None), (1, WordClass(10, PLUS)), (2, WordClass(2, MINUS)), (3, WordClass(2, PLUS))]
    svg = "\n".join(line_strip_lines(cells, len(cells), OMEGA)) + "\n"
    names = [">A_2<", ">B_2<", ">A_10<", ">other<"]
    assert sorted(names, key=svg.index) == names


def test_cayley_dot_shape():
    ball = VertexLabeling(2).ball(1)
    dot = cayley_ball_dot(ball)
    lines = dot.splitlines()
    assert lines[0] == "digraph cayley_ball {"
    assert lines[1] == "  node [shape=circle];"
    nodes = [l for l in lines if l.endswith('";')]
    assert nodes == ['  "-2";', '  "-1";', '  "0";', '  "1";', '  "2";']
    edges = [l for l in lines if "->" in l]
    assert '  "0" -> "1" [label="x1"];' in edges
    assert '  "-1" -> "0" [label="x1"];' in edges
    assert len(edges) == 4


def test_cayley_dot_orders_by_label_not_position():
    # The reference sorts the entries, which come in position order, by label.
    ball = VertexLabeling(3).ball(3)
    entries = sorted(ball.entries, key=lambda e: e.label)
    assert [e.label for e in entries] != ball.labels()
    lines = ["digraph cayley_ball {", "  node [shape=circle];"]
    lines += [f'  "{e.label}";' for e in entries]
    lines += [
        f'  "{e.label}" -> "{e.neighbors[j]}" [label="x{j}"];'
        for e in entries for j in range(1, 4) if e.neighbors[j] is not None
    ]
    lines.append("}")
    assert cayley_ball_dot(ball) == "\n".join(lines) + "\n"
