package repro.core

/** Syntactic cell typing and the color encoding of paper Table 1.
  *
  * Mondrian substitutes semantic cell types (data / metadata) with
  * *syntactic* types inferred from the literal cell content, and maps each
  * type to an RGB color so that a spreadsheet becomes an image: one cell,
  * one pixel. Sub-types of the same fundamental type share a primary color
  * and differ only in shade, so that histogram cross-correlation considers
  * them closer than cells of different fundamental types (paper §4.2).
  */
object Cells {

  /** Fundamental syntactic types (paper §4.1). */
  sealed trait Fundamental
  case object EmptyT    extends Fundamental
  case object NumberT   extends Fundamental
  case object DatetimeT extends Fundamental
  case object StringT   extends Fundamental

  /** Refined sub-types; ordinals are stable and used as compact codes. */
  sealed abstract class SynType(val code: Int, val fundamental: Fundamental, val rgb: (Int, Int, Int)) {
    /** Human-readable name matching paper Table 1. */
    def name: String = toString.stripSuffix("$")
  }
  // Sub-types of one fundamental type share their primary channel at (near)
  // full intensity, so under 64-bin-per-channel histograms they fall into
  // the SAME primary-channel bin and differ only on the secondary channels;
  // all other channel values are chosen to collide in NO bin across
  // fundamentals. This realizes the paper's design that "cells with the
  // same fundamental data type but different sub-types are more similar in
  // the color space than cells from different fundamental types" under
  // histogram cross-correlation (arbitrary shades in disjoint bins would
  // not be). Documented as a substitution in DESIGN.md.
  case object Empty         extends SynType(0, EmptyT,    (255, 255, 255)) // White
  case object IntegerSt     extends SynType(1, NumberT,   (100, 100, 248)) // Light Blue
  case object FloatSt       extends SynType(2, NumberT,   (40,  40,  248)) // Dark Blue
  case object TimeSt        extends SynType(3, DatetimeT, (80,  244, 80))  // Light Green
  case object DateSt        extends SynType(4, DatetimeT, (20,  244, 20))  // Dark Green
  case object UppercaseSt   extends SynType(5, StringT,   (248, 4,   4))   // Maroon
  case object LowercaseSt   extends SynType(6, StringT,   (248, 120, 120)) // Salmon Red
  case object TitlecaseSt   extends SynType(7, StringT,   (248, 60,  60))  // Tomato Red
  case object GenericSt     extends SynType(8, StringT,   (248, 180, 180)) // Scarlet Red

  val all: Seq[SynType] =
    Seq(Empty, IntegerSt, FloatSt, TimeSt, DateSt, UppercaseSt, LowercaseSt, TitlecaseSt, GenericSt)

  private val IntRe   = """[+-]?\d+""".r
  private val FloatRe = """[+-]?(\d+[.,]\d*|[.,]\d+)([eE][+-]?\d+)?""".r
  private val TimeRe  = """\d{1,2}:\d{2}(:\d{2})?""".r
  private val DateRe  = """\d{1,4}[/\-.]\d{1,2}[/\-.]\d{1,4}""".r

  /** Infers the syntactic type of a raw cell string (paper §4.1).
    *
    * Whitespace-only content is Empty. Datetime patterns are checked before
    * numbers so "17/9/20" is a date, not three integers. String casing:
    * uppercase iff it has letters and no lowercase; lowercase iff it has
    * letters and no uppercase; titlecase iff every word starts uppercase and
    * continues lowercase; generic otherwise (mixed symbols etc.).
    */
  def synType(raw: String): SynType = {
    val v = if (raw == null) "" else raw.trim
    if (v.isEmpty) Empty
    else if (TimeRe.matches(v)) TimeSt
    else if (DateRe.matches(v)) DateSt
    else if (IntRe.matches(v)) IntegerSt
    else if (FloatRe.matches(v)) FloatSt
    else {
      val letters = v.filter(_.isLetter)
      if (letters.isEmpty) GenericSt
      else if (letters.forall(_.isUpper)) UppercaseSt
      else if (letters.forall(_.isLower)) LowercaseSt
      else {
        val words = v.split("""[\s]+""").filter(_.exists(_.isLetter))
        val title = words.nonEmpty && words.forall { w =>
          val ls = w.dropWhile(!_.isLetter)
          ls.nonEmpty && ls.head.isUpper && ls.tail.filter(_.isLetter).forall(_.isLower)
        }
        if (title) TitlecaseSt else GenericSt
      }
    }
  }
}
