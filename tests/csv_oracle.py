"""The CSV row format written the slow way, as the reference for
`data._write_rows`: one `csv.writer` row per sample, each float formatted
with its own f-string to 17 significant digits."""

import csv


def oracle_write_csv(path, header, ids, labels, domains, values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [i, label, domain, *[f"{v:.17g}" for v in row]]
            for i, label, domain, row in zip(
                ids.tolist(), labels.tolist(), domains.tolist(), values.tolist()
            )
        )
