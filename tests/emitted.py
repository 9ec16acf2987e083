"""Read back the CSV files the command line writes."""


def read_csv(path):
    """Parse an emitted file back into (meta, header, rows)."""
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    meta[k] = v
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append([float(v) if _is_number(v) else v
                             for v in line.split(",")])
    return meta, header, rows


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False
