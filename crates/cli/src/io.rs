//! Data-file parsing for the CLI: one value per line, `#` comments and
//! blank lines ignored. Lines may optionally be `value,score` pairs for
//! score-annotated inputs.
//!
//! Batch windows files (one window per line, 1-D values or flat 2-D
//! coordinate lists) are read lazily by one [`WindowReader`], generic over
//! the line parser, so `moche batch` and `moche batch2d` hold only the
//! windows in flight. [`parse_windows`] parses a whole 1-D windows file at
//! once for callers that want every window resident.

use moche_multidim::Point2;
use std::fmt;
use std::path::Path;

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// I/O failure reading a file.
    Io {
        /// Path involved.
        path: String,
        /// Underlying error.
        source: std::io::Error,
    },
    /// A line failed to parse.
    Parse {
        /// Path involved.
        path: String,
        /// 1-based line number.
        line: usize,
        /// Offending content.
        content: String,
        /// What the line was supposed to hold (e.g. "a number", "an even
        /// coordinate list") — an odd 2-D coordinate count is made of
        /// perfectly good numbers, so the message must name the real
        /// expectation.
        expected: &'static str,
    },
    /// Invalid command-line usage.
    Usage(String),
    /// An algorithmic error from the library.
    Moche(moche_core::MocheError),
    /// Writing the report failed (e.g. a closed pipe).
    Write(std::io::Error),
    /// A monitor snapshot failed to read, verify, or write
    /// (`--resume` / `--checkpoint`).
    Snapshot(moche_stream::SnapshotError),
}

impl CliError {
    /// The process exit code for a command that failed with this error.
    /// Snapshot failures get their own code (3) so a supervisor restarting
    /// a crashed monitor can distinguish "the checkpoint is corrupt —
    /// escalate" from ordinary run failures; usage errors are reported as 2
    /// by `main` before a command ever runs, and everything else is 1.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Snapshot(_) => 3,
            _ => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io { path, source } => write!(f, "cannot read {path}: {source}"),
            CliError::Parse { path, line, content, expected } => {
                write!(f, "{path}:{line}: cannot parse '{content}' as {expected}")
            }
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Moche(e) => write!(f, "{e}"),
            CliError::Write(e) => write!(f, "cannot write output: {e}"),
            CliError::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<moche_core::MocheError> for CliError {
    fn from(e: moche_core::MocheError) -> Self {
        CliError::Moche(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Write(e)
    }
}

impl From<moche_stream::SnapshotError> for CliError {
    fn from(e: moche_stream::SnapshotError) -> Self {
        CliError::Snapshot(e)
    }
}

/// Parses the text content of a data file: one `f64` per non-comment line.
/// A trailing `,score` (or whitespace-separated second column) is ignored
/// here; use [`parse_values_and_scores`] to capture it.
pub fn parse_values(path: &str, content: &str) -> Result<Vec<f64>, CliError> {
    parse_columns(path, content).map(|(v, _)| v)
}

/// Parses values plus an optional per-line second column of scores.
/// Returns `(values, Some(scores))` only if *every* data line carries a
/// second column.
pub fn parse_values_and_scores(
    path: &str,
    content: &str,
) -> Result<(Vec<f64>, Option<Vec<f64>>), CliError> {
    let (values, scores) = parse_columns(path, content)?;
    if !values.is_empty() && scores.len() == values.len() {
        Ok((values, Some(scores)))
    } else {
        Ok((values, None))
    }
}

/// The numbers on one data line, split at commas and/or whitespace, with
/// `None` for a token that is not a number; `None` overall for a comment
/// or blank line.
fn line_numbers(raw: &str) -> Option<impl Iterator<Item = Option<f64>> + '_> {
    let line = raw.split('#').next().unwrap_or("").trim();
    let tokens = line.split(|c: char| c == ',' || c.is_whitespace()).filter(|s| !s.is_empty());
    (!line.is_empty()).then(|| tokens.map(|tok| tok.parse().ok()))
}

/// The parse error for line `line_no` (1-based) of `path`.
fn located(path: &str, line_no: usize, raw: &str, expected: &'static str) -> CliError {
    CliError::Parse {
        path: path.to_string(),
        line: line_no,
        content: raw.trim_end_matches(['\n', '\r']).to_string(),
        expected,
    }
}

fn parse_columns(path: &str, content: &str) -> Result<(Vec<f64>, Vec<f64>), CliError> {
    let mut values = Vec::new();
    let mut scores = Vec::new();
    for (i, raw) in content.lines().enumerate() {
        let Some(mut numbers) = line_numbers(raw) else { continue };
        let error = || located(path, i + 1, raw, "a number");
        values.push(numbers.next().flatten().ok_or_else(error)?);
        if let Some(score) = numbers.next() {
            scores.push(score.ok_or_else(error)?);
        }
    }
    Ok((values, scores))
}

/// Parses one windows-file line into a caller-recycled buffer (cleared
/// first): `None` for comments and blanks, otherwise the window
/// (comma/whitespace separated values). `line_no` is 1-based. On
/// `Some(Err(..))` the buffer holds whatever parsed before the error.
pub fn parse_window_line_into(
    path: &str,
    line_no: usize,
    raw: &str,
    window: &mut Vec<f64>,
) -> Option<Result<(), CliError>> {
    let numbers = line_numbers(raw)?;
    let error = || Some(Err(located(path, line_no, raw, "a number")));
    window.clear();
    for v in numbers {
        let Some(v) = v else { return error() };
        window.push(v);
    }
    // A line of nothing but separators is reported here, with a location,
    // instead of as a locationless "empty test set" later.
    if window.is_empty() {
        return error();
    }
    Some(Ok(()))
}

/// Parses a windows file: each non-comment line is one test window, its
/// values separated by commas and/or whitespace. Empty lines are skipped.
pub fn parse_windows(path: &str, content: &str) -> Result<Vec<Vec<f64>>, CliError> {
    let mut windows = Vec::new();
    for (i, raw) in content.lines().enumerate() {
        let mut window = Vec::new();
        if let Some(parsed) = parse_window_line_into(path, i + 1, raw, &mut window) {
            parsed?;
            windows.push(window);
        }
    }
    Ok(windows)
}

/// Parses a 2-D point file: one point per non-comment line, its `x` and
/// `y` coordinates separated by a comma and/or whitespace. A line with any
/// other number of columns is a located parse error.
pub fn parse_points(path: &str, content: &str) -> Result<Vec<Point2>, CliError> {
    let mut points = Vec::new();
    for (i, raw) in content.lines().enumerate() {
        let Some(mut numbers) = line_numbers(raw) else { continue };
        match (numbers.next(), numbers.next(), numbers.next()) {
            (Some(Some(x)), Some(Some(y)), None) => points.push(Point2::new(x, y)),
            _ => return Err(located(path, i + 1, raw, "a point (exactly two numbers: x y)")),
        }
    }
    Ok(points)
}

/// Parses one 2-D windows-file line into a caller-recycled buffer
/// (cleared first): `None` for comments and blanks, otherwise the window
/// read as a flat coordinate list `x1 y1 x2 y2 ...` paired up in order. An
/// odd coordinate count (a dangling `x`) and a separator-only line are
/// located parse errors.
pub fn parse_point_window_line_into(
    path: &str,
    line_no: usize,
    raw: &str,
    window: &mut Vec<Point2>,
) -> Option<Result<(), CliError>> {
    let mut numbers = line_numbers(raw)?;
    let expected = "an even coordinate list (x1 y1 x2 y2 ...)";
    let error = || Some(Err(located(path, line_no, raw, expected)));
    window.clear();
    while let Some(x) = numbers.next() {
        let (Some(x), Some(Some(y))) = (x, numbers.next()) else { return error() };
        window.push(Point2::new(x, y));
    }
    if window.is_empty() {
        return error();
    }
    Some(Ok(()))
}

/// A line parser for [`WindowReader`]: [`parse_window_line_into`] or
/// [`parse_point_window_line_into`].
pub type LineParser<P> = fn(&str, usize, &str, &mut Vec<P>) -> Option<Result<(), CliError>>;

/// A lazily-read windows file, one window per [`fill`](Self::fill), so a
/// file of any length is processed in bounded memory (`moche batch` and
/// `moche batch2d`).
///
/// The line buffer and the caller's window buffer are both recycled, so
/// steady-state reading performs no heap allocations — the producer side
/// of the streaming engine's constant-memory loop. The reader stops at the
/// first I/O or parse error and keeps it for [`finish`](Self::finish).
pub struct WindowReader<P> {
    reader: std::io::BufReader<std::fs::File>,
    /// Recycled line buffer.
    line: String,
    path: String,
    line_no: usize,
    parse: LineParser<P>,
    error: Option<CliError>,
}

impl<P> WindowReader<P> {
    /// Opens a windows file whose lines `parse` reads.
    pub fn open(path: &Path, parse: LineParser<P>) -> Result<Self, CliError> {
        let file = std::fs::File::open(path)
            .map_err(|source| CliError::Io { path: path.display().to_string(), source })?;
        Ok(Self {
            reader: std::io::BufReader::new(file),
            line: String::new(),
            path: path.display().to_string(),
            line_no: 0,
            parse,
            error: None,
        })
    }

    /// Overwrites `window` with the next window and returns `true`, or
    /// `false` at the end of the file or at the first error. This is the
    /// shape of [`moche_core::WindowSource`] and
    /// [`moche_multidim::Window2dSource`].
    pub fn fill(&mut self, window: &mut Vec<P>) -> bool {
        use std::io::BufRead as _;
        while self.error.is_none() {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return false, // end of file
                Ok(_) => {}
                Err(source) => {
                    self.error = Some(CliError::Io { path: self.path.clone(), source });
                    return false;
                }
            }
            self.line_no += 1;
            match (self.parse)(&self.path, self.line_no, &self.line, window) {
                None => {} // comment or blank line
                Some(Ok(())) => return true,
                Some(Err(e)) => self.error = Some(e),
            }
        }
        false
    }

    /// The error that stopped the reader, if one did.
    ///
    /// # Errors
    ///
    /// The first I/O or parse error [`fill`](Self::fill) met.
    pub fn finish(self) -> Result<(), CliError> {
        self.error.map_or(Ok(()), Err)
    }
}

/// Reads and parses a 2-D point file from disk (see [`parse_points`]).
pub fn read_points(path: &Path) -> Result<Vec<Point2>, CliError> {
    let content = std::fs::read_to_string(path)
        .map_err(|source| CliError::Io { path: path.display().to_string(), source })?;
    parse_points(&path.display().to_string(), &content)
}

/// Reads and parses a data file from disk.
pub fn read_values(path: &Path) -> Result<Vec<f64>, CliError> {
    let content = std::fs::read_to_string(path)
        .map_err(|source| CliError::Io { path: path.display().to_string(), source })?;
    parse_values(&path.display().to_string(), &content)
}

/// Reads a data file, capturing an optional score column.
pub fn read_values_and_scores(path: &Path) -> Result<(Vec<f64>, Option<Vec<f64>>), CliError> {
    let content = std::fs::read_to_string(path)
        .map_err(|source| CliError::Io { path: path.display().to_string(), source })?;
    parse_values_and_scores(&path.display().to_string(), &content)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_values() {
        let content = "1.5\n2\n-3.25\n";
        assert_eq!(parse_values("f", content).unwrap(), vec![1.5, 2.0, -3.25]);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let content = "# header\n1.0\n\n  # another\n2.0 # trailing\n";
        assert_eq!(parse_values("f", content).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn reports_parse_errors_with_location() {
        let content = "1.0\nnot-a-number\n";
        match parse_values("data.txt", content) {
            Err(CliError::Parse { path, line, .. }) => {
                assert_eq!(path, "data.txt");
                assert_eq!(line, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn score_column_detected_when_complete() {
        let content = "1.0,0.9\n2.0,0.1\n";
        let (v, s) = parse_values_and_scores("f", content).unwrap();
        assert_eq!(v, vec![1.0, 2.0]);
        assert_eq!(s, Some(vec![0.9, 0.1]));
    }

    #[test]
    fn partial_score_column_is_dropped() {
        let content = "1.0,0.9\n2.0\n";
        let (v, s) = parse_values_and_scores("f", content).unwrap();
        assert_eq!(v, vec![1.0, 2.0]);
        assert_eq!(s, None);
    }

    #[test]
    fn whitespace_separator_works() {
        let content = "1.0 0.9\n2.0\t0.1\n";
        let (_, s) = parse_values_and_scores("f", content).unwrap();
        assert_eq!(s, Some(vec![0.9, 0.1]));
    }

    #[test]
    fn empty_file_is_empty_vec() {
        assert!(parse_values("f", "# only comments\n").unwrap().is_empty());
    }

    #[test]
    fn parses_windows_one_per_line() {
        let content = "# two windows\n1.0, 2.0, 3.0\n4 5\t6 7\n";
        let w = parse_windows("f", content).unwrap();
        assert_eq!(w, vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0, 7.0]]);
    }

    #[test]
    fn windows_parse_errors_carry_location() {
        match parse_windows("w.csv", "1,2\n3,oops,5\n") {
            Err(CliError::Parse { path, line, .. }) => {
                assert_eq!(path, "w.csv");
                assert_eq!(line, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn separator_only_window_line_is_a_located_error() {
        match parse_windows("w.csv", "1,2\n, ,\n") {
            Err(CliError::Parse { line: 2, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_points_one_per_line() {
        let content = "# header\n1.0, 2.0\n-3 4.5 # trailing\n";
        let p = parse_points("f", content).unwrap();
        assert_eq!(p, vec![Point2::new(1.0, 2.0), Point2::new(-3.0, 4.5)]);
    }

    #[test]
    fn point_arity_errors_carry_location() {
        for bad in ["1.0\n", "1 2 3\n", "1,oops\n"] {
            match parse_points("p.txt", bad) {
                Err(CliError::Parse { path, line, .. }) => {
                    assert_eq!(path, "p.txt");
                    assert_eq!(line, 1, "input {bad:?}");
                }
                other => panic!("input {bad:?}: unexpected {other:?}"),
            }
        }
    }

    /// Reads `content` through a [`WindowReader`] over a temp file: the
    /// windows delivered, then what the reader finished with.
    fn read_all<P: Clone>(
        tag: &str,
        content: &str,
        parse: LineParser<P>,
    ) -> (Vec<Vec<P>>, Result<(), CliError>) {
        let path =
            std::env::temp_dir().join(format!("moche-io-test-{tag}-{}.csv", std::process::id()));
        std::fs::write(&path, content).unwrap();
        let mut reader = WindowReader::open(&path, parse).unwrap();
        let _ = std::fs::remove_file(&path); // the open handle keeps reading
        let (mut windows, mut buf) = (Vec::new(), Vec::new());
        while reader.fill(&mut buf) {
            windows.push(buf.clone());
        }
        assert!(!reader.fill(&mut buf), "a stopped reader stays stopped");
        (windows, reader.finish())
    }

    #[test]
    fn reader_matches_parse_windows() {
        let content = "# two windows\n1.0, 2.0, 3.0\n\n4 5\t6 7 # trailing\n";
        let (windows, end) = read_all("values", content, parse_window_line_into);
        assert!(end.is_ok());
        assert_eq!(windows, parse_windows("f", content).unwrap());
        let (windows, end) = read_all("values-bad", "1,2\n3,oops,5\n6\n", parse_window_line_into);
        assert_eq!(windows, vec![vec![1.0, 2.0]], "windows before the error are delivered");
        assert!(matches!(end, Err(CliError::Parse { line: 2, .. })), "{end:?}");
    }

    #[test]
    fn parses_point_windows_as_flat_coordinate_lists() {
        let content = "# two windows\n1 2, 3 4\n5,6\n";
        let (w, end) = read_all("points", content, parse_point_window_line_into);
        assert!(end.is_ok());
        assert_eq!(
            w,
            vec![vec![Point2::new(1.0, 2.0), Point2::new(3.0, 4.0)], vec![Point2::new(5.0, 6.0)],]
        );
    }

    #[test]
    fn odd_coordinate_count_is_a_located_error() {
        for bad in ["1 2\n3 4 5\n", "1 2\n, ,\n"] {
            let (w, end) = read_all("points-bad", bad, parse_point_window_line_into);
            assert_eq!(w, vec![vec![Point2::new(1.0, 2.0)]], "input {bad:?}");
            match end {
                Err(CliError::Parse { line: 2, .. }) => {}
                other => panic!("input {bad:?}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = CliError::Usage("bad flag".into());
        assert_eq!(e.to_string(), "bad flag");
        let e = CliError::Parse {
            path: "p".into(),
            line: 3,
            content: "x".into(),
            expected: "a number",
        };
        assert!(e.to_string().contains("p:3"));
        assert!(e.to_string().contains("as a number"));
    }
}
