import differential


def test_this_tree_prints_the_same_lines_in_two_processes(capsys):
    # each point's line, cells, errors and hashes alike, does not depend on
    # the process that evaluates it: two subprocesses of this tree agree on
    # 200 points
    assert differential.main(["--points", "200"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "200 points, 0 differing lines"
